#ifndef BYZRENAME_BASELINES_CRASH_RENAMING_H
#define BYZRENAME_BASELINES_CRASH_RENAMING_H

#include <optional>
#include <set>

#include "core/params.h"
#include "core/rank_approx.h"
#include "sim/process.h"

namespace byzrename::baselines {

/// Okun-style crash-tolerant strong order-preserving renaming
/// (Theoretical Computer Science 2010, the paper's reference [14]) — the
/// algorithm Alg. 1 generalizes to Byzantine faults.
///
/// One id-exchange step replaces the whole 4-step selection phase: with
/// crash faults nobody lies, so every received id is genuine and views
/// differ only by omission. The voting phase reuses the same approximate
/// machinery as Alg. 1 (trimming is unnecessary under crashes but
/// harmless) without the isValid filter, which crash faults never
/// trigger. Runs 1 + 3*ceil(log t)+3 steps; namespace N (strong).
class CrashRenamingProcess final : public sim::ProcessBehavior {
 public:
  CrashRenamingProcess(sim::SystemParams params, sim::Id my_id,
                       core::RenamingOptions options = {});

  void on_send(sim::Round round, sim::Outbox& out) override;
  void on_receive(sim::Round round, const sim::Inbox& inbox) override;
  [[nodiscard]] bool done() const override { return decided_; }
  [[nodiscard]] std::optional<sim::Name> decision() const override { return decision_; }

  [[nodiscard]] int total_steps() const noexcept { return 1 + iterations_; }
  [[nodiscard]] const std::set<sim::Id>& accepted() const noexcept { return accepted_; }
  [[nodiscard]] const core::RankMap& ranks() const noexcept { return ranks_; }

 private:
  void decide();

  sim::SystemParams params_;
  int iterations_;
  numeric::Rational delta_;
  sim::Id my_id_;

  std::set<sim::Id> accepted_;
  core::RankMap ranks_;

  bool decided_ = false;
  std::optional<sim::Name> decision_;
};

}  // namespace byzrename::baselines

#endif  // BYZRENAME_BASELINES_CRASH_RENAMING_H
