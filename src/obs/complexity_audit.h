#ifndef BYZRENAME_OBS_COMPLEXITY_AUDIT_H
#define BYZRENAME_OBS_COMPLEXITY_AUDIT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "obs/telemetry.h"

namespace byzrename::obs {

/// One audited closed-form bound: the paper's formula, the numeric limit
/// it resolves to for this run's (N, t), and the worst value the run
/// actually produced. `upper` distinguishes <= bounds (steps, messages,
/// bits, Delta_r) from the single >= bound (Lemma VI.2's rank gap).
struct AuditBound {
  std::string bound;    ///< stable id, e.g. "steps", "rank_contraction"
  std::string formula;  ///< the paper's closed form, as text
  bool upper = true;    ///< true: observed <= limit; false: observed >= limit
  double limit = 0.0;
  double observed = 0.0;
  bool ok = true;
  std::string detail;  ///< where the extreme was seen, e.g. "round 7 (k=3)"
};

/// RunObserver that evaluates the paper's complexity budgets online
/// against a live run and renders a byzrename.audit/1 verdict record.
///
/// Bounds checked (each only when the run's algorithm and probes make it
/// meaningful; see docs/OBSERVABILITY.md for the formula -> code -> data
/// table):
///   steps             rounds <= 4+iterations (op/const: Thm. IV.12's
///                     3*ceil(log2 t)+7 at default iterations) or 2 (fast)
///   messages          correct messages <= 4.5 * N^2 * rounds. The hard
///                     bound is N^2 per round (correct processes only
///                     broadcast, at most once per round), so the measured
///                     4.5x envelope (EXPERIMENTS.md T4) can never falsely
///                     fire.
///   bit_size          max correct message <= (N+t)*(64+ceil(log2 N)+40)
///                     bits, the Section IV-D vote-vector size (op/const)
///   rank_contraction  Delta_r <= Delta_4 / rate^k for voting iteration
///                     k, with the CONSTRUCTIVE rate floor((N-2t-1)/t)+1
///                     of EXPERIMENTS.md Finding #1 — one less than Lemma
///                     IV.8's floor((N-2t)/t)+1 exactly when t | (N-2t),
///                     i.e. the looser envelope that measured runs meet
///                     with zero false alarms
///   fast_discrepancy  max name discrepancy <= 2t^2 (Lemma VI.1, fast)
///   fast_gap          min rank gap >= N-t (Lemma VI.2, fast; the one
///                     lower bound)
///
/// Attach next to a MetricsSink on the run's observer list; after on_run_end
/// the verdict is final (complete() flips true).
class ComplexityAuditor final : public RunObserver {
 public:
  /// Measured message-constant envelope (EXPERIMENTS.md T4): observed
  /// correct-message totals sit under 4.5 * N^2 * rounds across the
  /// adversary sweep, while the provable ceiling is 1.0 * N^2 * rounds.
  static constexpr double kMessageConstant = 4.5;

  [[nodiscard]] Sampling sampling() const override { return Sampling::kProbes; }
  void on_run_start(const RunInfo& info) override;
  void on_round(const RoundSample& sample, const sim::Network& network) override;
  void on_run_end(const RunSummary& summary) override;

  /// True once on_run_end folded the whole-run totals; bounds() is
  /// meaningless before that.
  [[nodiscard]] bool complete() const noexcept { return complete_; }
  [[nodiscard]] const std::vector<AuditBound>& bounds() const noexcept { return bounds_; }
  [[nodiscard]] bool all_ok() const noexcept;

  /// One byzrename.audit/1 line (schema'd in obs/schema.h).
  /// Deterministic: no wall clocks enter any bound.
  void write_audit_jsonl(std::ostream& os) const;

  /// The contraction rate the envelope uses: floor((N-2t-1)/t)+1, the
  /// constructive per-iteration factor of EXPERIMENTS.md Finding #1.
  /// Exposed for tests; requires t >= 1.
  [[nodiscard]] static int contraction_rate(int n, int t) noexcept {
    return (n - 2 * t - 1) / t + 1;
  }

 private:
  RunInfo info_;
  bool complete_ = false;

  // Voting-phase contraction state, accumulated per round.
  bool have_baseline_ = false;
  double baseline_spread_ = 0.0;  ///< Delta_4: spread when voting begins
  bool have_contraction_ = false;
  double worst_spread_ = 0.0;    ///< spread of the worst voting round
  double worst_envelope_ = 0.0;  ///< its envelope Delta_4 / rate^k
  int worst_round_ = 0;
  int worst_iteration_ = 0;

  // Fast-renaming probe extremes.
  bool have_fast_ = false;
  double fast_worst_discrepancy_ = 0.0;
  double fast_worst_gap_ = 0.0;
  int fast_discrepancy_round_ = 0;
  int fast_gap_round_ = 0;

  std::vector<AuditBound> bounds_;
};

}  // namespace byzrename::obs

#endif  // BYZRENAME_OBS_COMPLEXITY_AUDIT_H
