#ifndef BYZRENAME_CORE_OP_RENAMING_H
#define BYZRENAME_CORE_OP_RENAMING_H

#include <optional>
#include <set>
#include <vector>

#include "core/id_selection.h"
#include "core/params.h"
#include "core/rank_approx.h"
#include "core/voting_kernel.h"
#include "sim/process.h"

namespace byzrename::core {

/// Alg. 1: order-preserving Byzantine renaming for N > 3t.
///
/// Steps 1-4 run the id selection phase (IdSelection); steps 5 onwards
/// run the validated approximate-agreement voting phase. After the last
/// voting step the process decides round(ranks[my_id]).
///
/// The voting phase runs on one of two arithmetic kernels
/// (RenamingOptions::rank_kernel): the fixed-width SoA engine
/// (FixedVotingEngine, the default — zero heap allocations per voting
/// round) or the exact-Rational oracle it is bit-identical to. kCheck
/// runs both and throws on any divergence.
///
/// Guarantees (Theorem IV.10): for N > 3t the decided names of correct
/// processes are unique, order-preserving with respect to original ids,
/// and lie in [1 .. N+t-1]. In the constant-time regime N > t^2 + 2t,
/// running exactly 4 voting iterations (RenamingOptions) yields names in
/// [1 .. N] after 8 total steps (Theorem V.3).
class OpRenamingProcess final : public sim::ProcessBehavior {
 public:
  OpRenamingProcess(sim::SystemParams params, sim::Id my_id, RenamingOptions options = {});

  void on_send(sim::Round round, sim::Outbox& out) override;
  void on_receive(sim::Round round, const sim::Inbox& inbox) override;
  [[nodiscard]] bool done() const override { return decided_; }
  [[nodiscard]] std::optional<sim::Name> decision() const override { return decision_; }

  /// Total synchronous steps this configuration runs (4 + iterations).
  [[nodiscard]] int total_steps() const noexcept { return 4 + iterations_; }

  // --- Introspection for tests and benches -------------------------------

  [[nodiscard]] const std::set<sim::Id>& timely() const noexcept { return selection_.timely(); }
  [[nodiscard]] const std::set<sim::Id>& accepted() const noexcept { return accepted_; }
  /// The accepted set as of the end of step 4, before the voting phase
  /// drops under-voted ids — the set Lemma IV.3 bounds.
  [[nodiscard]] const std::set<sim::Id>& selection_accepted() const noexcept {
    return selection_.accepted();
  }
  /// Current rank estimates as canonical Rationals. On the fixed kernel
  /// this materializes (and caches) the SoA state, so the reference
  /// stays valid until the next voting step, exactly like before.
  [[nodiscard]] const RankMap& ranks() const;
  /// Current rank of one id, if still held, without materializing ranks().
  [[nodiscard]] std::optional<numeric::Rational> rank_of(sim::Id id) const;
  /// Visits the current ranks in id order without materializing them:
  /// on-grid limbs on the fixed kernel, exact values otherwise.
  template <typename Visit>
  void for_each_rank(Visit&& visit) const {
    if (engine_.has_value()) {
      engine_->for_each_rank(visit);
    } else {
      for (const auto& [id, rank] : ranks_) visit(RankRef{id, nullptr, &rank});
    }
  }
  /// A vote builder over this instance's grid (none on the exact kernel,
  /// so every entry is exact), sized for one entry per current rank: how
  /// Byzantine strategies wrapping this process build their faces.
  [[nodiscard]] VoteBuilder vote_builder() const;
  [[nodiscard]] sim::Id my_id() const noexcept { return selection_.my_id(); }
  /// Votes rejected by decode/isValid across the whole run.
  [[nodiscard]] int rejected_votes() const noexcept { return rejected_votes_; }
  /// The kernel actually running (an over-budget instance downgrades
  /// kFixed/kCheck to kExact).
  [[nodiscard]] RankKernel rank_kernel() const noexcept { return kernel_; }
  /// The voting-step cache this process steps through, if any.
  [[nodiscard]] const ViewCache* view_cache() const noexcept {
    return engine_.has_value() && engine_->cached() ? options_.view_cache : nullptr;
  }

 private:
  void assign_initial_ranks();
  void decide();
  /// One exact-oracle voting step over `inbox` (the pre-fixed-point
  /// pipeline, verbatim): used by the kExact kernel and as the kCheck
  /// shadow.
  void exact_step(const sim::Inbox& inbox, RankMap& ranks, std::set<sim::Id>& accepted,
                  int& rejected);

  sim::SystemParams params_;
  RenamingOptions options_;
  int iterations_;
  numeric::Rational delta_;

  IdSelection selection_;
  std::set<sim::Id> accepted_;  ///< working copy, shrinks as ids are dropped
  RankMap ranks_;               ///< exact-kernel state (empty on kFixed/kCheck)

  RankKernel kernel_ = RankKernel::kExact;
  std::optional<FixedVotingEngine> engine_;
  mutable RankMap ranks_cache_;  ///< materialized engine state for ranks()
  mutable bool ranks_cache_valid_ = false;

  // kCheck: exact shadow of the fixed engine, compared after each step.
  RankMap shadow_ranks_;
  std::set<sim::Id> shadow_accepted_;
  int shadow_rejected_ = 0;

  int rejected_votes_ = 0;
  bool decided_ = false;
  std::optional<sim::Name> decision_;
};

}  // namespace byzrename::core

#endif  // BYZRENAME_CORE_OP_RENAMING_H
