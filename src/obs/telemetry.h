#ifndef BYZRENAME_OBS_TELEMETRY_H
#define BYZRENAME_OBS_TELEMETRY_H

#include <cstdint>
#include <string>
#include <utility>

#include "core/algorithm.h"
#include "sim/metrics.h"
#include "sim/types.h"

namespace byzrename::core {
struct ScenarioResult;
}  // namespace byzrename::core

namespace byzrename::sim {
class Network;
}  // namespace byzrename::sim

namespace byzrename::obs {

/// Resolved identity of one scenario run, captured at start. Field
/// meanings mirror core::ScenarioConfig after the harness resolved the
/// defaults (faults, iterations, round budget).
struct RunInfo {
  core::Algorithm algorithm = core::Algorithm::kOpRenaming;
  int n = 0;
  int t = 0;
  int faults = 0;
  std::string adversary;
  std::uint64_t seed = 0;
  int iterations = -1;  ///< resolved voting iterations; -1 = not applicable
  bool validate_votes = true;
  sim::Name target_namespace = 0;
  int round_budget = 0;
  /// Canonical fault-plan spec (sim::to_spec); empty = clean model.
  std::string fault_plan;
};

/// Everything the telemetry layer measures about one synchronous round:
/// the round's communication counters, its wall clock, the acceptance /
/// rejection counters over correct processes, and (when the run's
/// algorithm exposes them) the core::probe quantities the paper's lemmas
/// bound. Probe fields are guarded by the has_* flags.
struct RoundSample {
  sim::Round round = 0;
  sim::RoundMetrics metrics;  ///< this round only, not cumulative
  double wall_seconds = 0.0;

  /// |accepted| extremes and cumulative rejected votes/echoes over
  /// correct Alg. 1 / Alg. 4 processes.
  bool has_acceptance = false;
  std::size_t min_accepted = 0;
  std::size_t max_accepted = 0;
  long rejected_votes = 0;

  /// Alg. 1 rank probes: Delta_r (Lemmas IV.7-9) and the adjacent-rank
  /// gap (Corollary IV.6). Exact rationals carried as strings so no
  /// precision is lost in the report; doubles for plotting.
  bool has_rank_probes = false;
  std::string rank_spread_exact;
  double rank_spread = 0.0;
  std::string adjacent_gap_exact;
  double adjacent_gap = 0.0;

  /// Alg. 4 name probes (Lemmas VI.1 / VI.2), meaningful from round 2.
  bool has_fast_probes = false;
  sim::Name fast_max_discrepancy = 0;
  sim::Name fast_min_gap = 0;
};

/// A finished run as handed to observers: the full harness result plus
/// the whole-run wall clock measured by the harness.
struct RunSummary {
  const core::ScenarioResult& result;
  double wall_seconds = 0.0;
};

/// How much of each round's RoundSample an observer reads. The harness
/// fills one shared sample per round to the highest level on the list:
/// kNone leaves only `round` set, kCounters adds the round's counters,
/// wall clock and acceptance figures, and kProbes adds the exact-rational
/// probes (the costly part).
enum class Sampling { kNone, kCounters, kProbes };

/// The one way to watch a core::run_scenario call. Observers sit on
/// ScenarioConfig::observers as non-owning pointers and are called in
/// list order, so a caller puts its probes first, then a watchdog or
/// interrupt check, then its sinks. Every hook defaults to a no-op, so
/// an observer overrides only what it consumes.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  [[nodiscard]] virtual Sampling sampling() const { return Sampling::kNone; }
  /// After set-up, before round 1.
  virtual void on_run_start(const RunInfo& info) { (void)info; }
  /// Bracket immediately around Network::run_round, for observers that
  /// time a round (the profiler's phase scopes). Begin fires in list
  /// order and end in reverse, so brackets nest; sampling and on_round
  /// run after the bracket closes and never land inside it.
  virtual void on_round_begin(sim::Round round) { (void)round; }
  virtual void on_round_end(sim::Round round) { (void)round; }
  /// After each round's receive phase. May throw to abort the run.
  virtual void on_round(const RoundSample& sample, const sim::Network& network) {
    (void)sample;
    (void)network;
  }
  /// After the checker scored the run; not called when a hook threw.
  virtual void on_run_end(const RunSummary& summary) { (void)summary; }
};

/// Adapts a per-round callable `void(sim::Round, const sim::Network&)`,
/// a test's or bench's probe, into an observer.
template <class Probe>
class RoundProbe final : public RunObserver {
 public:
  explicit RoundProbe(Probe probe) : probe_(std::move(probe)) {}
  void on_round(const RoundSample& sample, const sim::Network& network) override {
    probe_(sample.round, network);
  }

 private:
  Probe probe_;
};

}  // namespace byzrename::obs

#endif  // BYZRENAME_OBS_TELEMETRY_H
