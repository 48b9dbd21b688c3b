#ifndef BYZRENAME_AA_BYZANTINE_AA_H
#define BYZRENAME_AA_BYZANTINE_AA_H

#include <cstddef>
#include <optional>
#include <vector>

#include "core/params.h"
#include "core/voting_kernel.h"
#include "numeric/fixed_rank.h"
#include "numeric/rational.h"
#include "sim/process.h"
#include "sim/types.h"

namespace byzrename::aa {

/// Synchronous Byzantine approximate agreement after Dolev, Lynch,
/// Pinter, Stark and Weihl (J.ACM 1986) — the substrate reference [7] of
/// the paper, isolated here as a standalone reusable component.
///
/// Each round every process broadcasts its value, pads the received
/// multiset to N with its own value, discards the t lowest and t highest,
/// and moves to the average of the select_t subsequence. For N > 3t each
/// round shrinks the spread of correct values by at least
/// sigma_t = floor((N-2t)/t) + 1, and new values stay inside the range of
/// the old correct values.
///
/// The averaging arithmetic runs on the fixed-width ballot kernel by
/// default (numeric/fixed_rank.h): integer initial values stay on the
/// instance's 1/S grid through every round, so the sort + trim + select
/// pipeline works on flat two's-complement limbs with zero heap
/// allocations. Any off-grid value (crafted Byzantine denominators, or
/// an instance whose grid exceeds the supported width) drops that round
/// — or the whole instance — back to the exact-Rational pipeline, whose
/// results are bit-identical by construction. kCheck runs both and
/// throws on divergence.
class ByzantineAAProcess final : public sim::ProcessBehavior {
 public:
  /// Values whose encoding (Rational::encoded_bits) exceeds this are
  /// discarded on receipt: Byzantine denominator inflation.
  static constexpr std::size_t kMaxValueBits = std::size_t{1} << 16;

  /// @param rounds number of exchange rounds to run before halting.
  ByzantineAAProcess(sim::SystemParams params, numeric::Rational initial, int rounds,
                     core::RankKernel kernel = core::RankKernel::kFixed);

  void on_send(sim::Round round, sim::Outbox& out) override;
  void on_receive(sim::Round round, const sim::Inbox& inbox) override;
  [[nodiscard]] bool done() const override { return rounds_left_ == 0; }

  /// Current estimate; the protocol's output once done().
  [[nodiscard]] const numeric::Rational& value() const noexcept { return value_; }

  /// The kernel actually running (an over-budget grid downgrades
  /// kFixed/kCheck to kExact).
  [[nodiscard]] core::RankKernel kernel() const noexcept { return kernel_; }

 private:
  sim::SystemParams params_;
  numeric::Rational value_;
  int rounds_left_;
  core::RankKernel kernel_;
  numeric::FixedSpec spec_;
  core::FixedBallotKernel ballot_kernel_;

  // Pooled per-round scratch: flat per-link slots (stamped, never
  // cleared) instead of a std::map, plus reusable ballot storage — a
  // steady-state round on the fixed path allocates nothing, and even
  // the exact path drops all per-round map-node churn.
  std::vector<int> link_stamp_;
  int round_serial_ = 0;
  std::vector<const numeric::Rational*> admitted_;
  std::vector<numeric::Rational> exact_ballot_;
};

}  // namespace byzrename::aa

#endif  // BYZRENAME_AA_BYZANTINE_AA_H
