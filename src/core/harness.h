#ifndef BYZRENAME_CORE_HARNESS_H
#define BYZRENAME_CORE_HARNESS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "core/checker.h"
#include "core/params.h"
#include "sim/fault.h"
#include "sim/process.h"
#include "sim/runner.h"
#include "trace/event_log.h"

namespace byzrename::obs {
class RunObserver;
}  // namespace byzrename::obs

namespace byzrename::obs::prof {
class Profiler;
}  // namespace byzrename::obs::prof

namespace byzrename::core {

/// Creates a correct-process behavior for the given protocol. Also used
/// by adversary strategies that mimic or wrap honest processes (crash
/// faults, split-world equivocators). @p index is the process's physical
/// index, needed only by protocols in the sender-authenticated model
/// (consensus renaming); pass -1 otherwise.
[[nodiscard]] std::unique_ptr<sim::ProcessBehavior> make_correct_behavior(
    Algorithm algorithm, const sim::SystemParams& params, sim::Id id,
    const RenamingOptions& options = {}, sim::ProcessIndex index = -1);

/// Target namespace size M the protocol promises for (n, t); the checker
/// scores validity against this.
[[nodiscard]] sim::Name namespace_size(Algorithm algorithm, const sim::SystemParams& params);

/// Synchronous steps the protocol needs; the runner's round budget.
[[nodiscard]] int expected_steps(Algorithm algorithm, const sim::SystemParams& params,
                                 const RenamingOptions& options = {});

/// A complete experiment specification: protocol, fault budget, id
/// workload, adversary strategy, seed.
struct ScenarioConfig {
  sim::SystemParams params;
  Algorithm algorithm = Algorithm::kOpRenaming;
  /// Strategy name from the adversary registry ("silent", "idflood", ...).
  std::string adversary = "silent";
  /// Number of actually faulty processes, <= params.t. -1 means t.
  /// FaultPlan::fault_overshoot adds on top of this, deliberately past t.
  int actual_faults = -1;
  std::uint64_t seed = 1;
  /// Declarative model-violation plan (sim/fault.h): link drops /
  /// duplicates / delays, crash-recovery windows, transient partitions,
  /// and fault-count overshoot. Empty (the default) runs the paper's
  /// reliable lockstep model exactly. Injection randomness derives from
  /// the run seed, so faulted runs stay bit-reproducible.
  sim::FaultPlan fault_plan;
  /// Original ids of correct processes; generated from the seed if empty.
  std::vector<sim::Id> correct_ids;
  RenamingOptions options;
  /// Extra safety margin on the round budget (0 = exact expected_steps).
  int extra_rounds = 0;
  /// Observers of the run (obs/telemetry.h): non-owning, called in list
  /// order, read-only (a hook may only throw to abort the run). Each
  /// round's sample is filled once, to the level the most demanding
  /// observer declares. Empty (the default) costs nothing: no RunInfo,
  /// no sample, no allocation.
  std::vector<obs::RunObserver*> observers;
  /// Optional structured event trace (sends/deliveries/decisions);
  /// O(N^2) events per round, for debugging-scale scenarios only.
  trace::EventLog* event_log = nullptr;
  /// Optional profiler (obs/prof/profiler.h). When attached the harness
  /// opens "setup" / "run" / "check" scopes and puts a phase bracket
  /// first on the run's observer list, so every round is timed under its
  /// phase scope ("run;voting k=2", core/phase.h taxonomy). Strictly
  /// read-only like the observers: attaching one cannot change any run
  /// result. One profiler instruments one run at a time (its scope
  /// stack is per-run state); campaign workers attach a fresh local one
  /// per run. Null costs nothing.
  obs::prof::Profiler* profiler = nullptr;
};

/// Everything a test or bench wants to know about one run.
struct ScenarioResult {
  sim::RunResult run;
  CheckReport report;
  sim::Name target_namespace = 0;
  std::vector<NamedProcess> named;  ///< correct processes, in id order
  /// |accepted| extremes over correct processes (Alg. 1 / Alg. 4 only).
  std::size_t max_accepted = 0;
  std::size_t min_accepted = 0;
  /// Votes/echoes rejected by validation, summed over correct processes.
  long total_rejected = 0;
};

/// Deterministically generates @p count distinct ids from a large
/// namespace, seeded; ids of correct and faulty processes interleave so
/// Byzantine lies can target order boundaries.
[[nodiscard]] std::vector<sim::Id> generate_ids(int count, std::uint64_t seed);

/// Assembles the network (correct processes at indices 0..n-f-1 in id
/// order, faulty at the tail), runs it to completion, and scores it.
///
/// ## Re-entrancy contract (audited for the src/exp campaign engine)
///
/// run_scenario is safe to call concurrently from any number of threads
/// with DISTINCT ScenarioConfig objects, and the result for a given
/// config is bit-identical regardless of what runs next to it:
///  - every piece of run state (network, behaviors, RNG streams, metrics,
///    event log, the voting-step ViewCache) is constructed inside the
///    call and owned by its frame; config.options.view_cache is ignored;
///  - there are no mutable globals anywhere under src/{sim,core,
///    adversary,aa,rbc,consensus,baselines,translate,numeric}: the only
///    function-local static is the adversary registry's const map, whose
///    initialization C++ magic statics make thread-safe;
///  - all randomness flows from ScenarioConfig::seed through explicitly
///    seeded sim::Rng instances local to the run.
///
/// The caller-supplied attachments are the exception: observers,
/// event_log and profiler are invoked on the calling thread and must not
/// be shared across concurrent runs unless they synchronize internally
/// (obs::RunReportSink buffers per-run state — one sink per in-flight
/// run; see obs/run_report.h). Anyone adding a cache or
/// static to code under this call tree must keep it either const or
/// thread-local, or the campaign engine's determinism guarantee breaks.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

}  // namespace byzrename::core

#endif  // BYZRENAME_CORE_HARNESS_H
