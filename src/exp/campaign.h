#ifndef BYZRENAME_EXP_CAMPAIGN_H
#define BYZRENAME_EXP_CAMPAIGN_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "core/harness.h"
#include "core/params.h"
#include "exp/repro.h"
#include "exp/stats.h"
#include "obs/prof/profile_io.h"
#include "sim/fault.h"
#include "sim/types.h"

namespace byzrename::exp {

class ProgressTracker;

/// One explicit (algorithm, system, adversary) scenario, for sweeps that
/// are not cartesian (each case pairs its own system with its own
/// adversary, like bench_f1's worst-case profile).
struct CampaignScenario {
  core::Algorithm algorithm = core::Algorithm::kOpRenaming;
  sim::SystemParams params;
  std::string adversary = "silent";
};

/// Declarative description of an experiment campaign: a cartesian grid
/// (algorithms x systems x adversaries) plus an explicit scenario list,
/// each cell repeated `repetitions` times under seeds derived from
/// `master_seed`. Expansion (expand_cells) is a pure function of the
/// spec, so a spec names the exact same run set on every machine.
struct CampaignSpec {
  std::string name = "campaign";

  // --- cartesian grid ----------------------------------------------------
  std::vector<core::Algorithm> algorithms;
  /// (n, t) axis: the cross product n_values x t_values, plus the
  /// explicit `systems` list for non-rectangular grids (Table-IV-style
  /// diagonal sweeps).
  std::vector<int> n_values;
  std::vector<int> t_values;
  std::vector<sim::SystemParams> systems;
  std::vector<std::string> adversaries;

  // --- explicit scenarios, appended after the grid -----------------------
  std::vector<CampaignScenario> scenarios;

  /// Runs per cell; per-run seeds are sim::Rng::derive_stream splits of
  /// (master_seed, cell index, repetition), see derive_seed().
  int repetitions = 1;
  std::uint64_t master_seed = 1;

  /// Forwarded into every ScenarioConfig.
  core::RenamingOptions options;
  int actual_faults = -1;
  int extra_rounds = 0;
  /// Fault-injection plan applied to every run (sim/fault.h); empty runs
  /// the clean model. Injection randomness derives from each run's seed,
  /// so the bit-determinism guarantee is unaffected.
  sim::FaultPlan fault_plan;

  /// Drop grid cells that violate the algorithm's resilience
  /// precondition (e.g. n <= 3t for Alg. 1) instead of erroring at run
  /// time; explicit `scenarios` are never filtered.
  bool skip_invalid = true;
};

/// One expanded cell. `index` is the cell's position in the FULL
/// expansion (before sharding): it keys seed derivation and sharding, so
/// a cell's runs are identical whether executed alone, in a shard, or in
/// the full campaign.
struct CampaignCell {
  std::size_t index = 0;
  core::Algorithm algorithm = core::Algorithm::kOpRenaming;
  sim::SystemParams params;
  std::string adversary;
};

/// Grid cells in deterministic order: algorithms x (n x t then systems)
/// x adversaries, then explicit scenarios.
[[nodiscard]] std::vector<CampaignCell> expand_cells(const CampaignSpec& spec);

/// Canonical cell label, "op-renaming/n13/t4/asymflood": the join key of
/// byzrename.campaign/1 lines and the run-line label prefix.
[[nodiscard]] std::string cell_key(const CampaignCell& cell);

/// True iff (algorithm, params) satisfies the algorithm's resilience
/// precondition (the run would not throw on construction).
[[nodiscard]] bool cell_valid(core::Algorithm algorithm, const sim::SystemParams& params);

/// Seed of repetition @p rep of cell @p cell: two chained SplitMix
/// stream splits. Pure; pinned by golden tests — changing it invalidates
/// every recorded campaign.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master_seed, std::uint64_t cell,
                                        std::uint64_t rep);

/// Everything recorded about one campaign run. Integral copies of the
/// scenario outcome (not the full ScenarioResult: per-round vectors of a
/// large campaign would dwarf the aggregate).
struct RunRecord {
  std::size_t cell = 0;  ///< CampaignCell::index
  int rep = 0;
  std::uint64_t seed = 0;
  bool executed = false;  ///< false: skipped by fail-fast cancellation
  bool ok = false;        ///< checker verdict all_ok
  bool terminated = false;
  int rounds = 0;
  std::int64_t max_name = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t correct_messages = 0;
  std::uint64_t correct_bits = 0;
  std::uint64_t equivocating_sends = 0;
  std::uint64_t max_message_bits = 0;
  std::uint64_t max_correct_message_bits = 0;
  std::size_t min_accepted = 0;
  std::size_t max_accepted = 0;
  long rejected_votes = 0;
  /// Wall clock of this run. Volatile: never enters deterministic
  /// aggregates, reported only in the summary.
  double wall_seconds = 0.0;
  /// First checker violation or the run's exception message.
  std::string detail;
  /// How the run concluded: kNone/kViolation are normal results;
  /// kException/kTimeout mark infrastructure failures that went through
  /// the retry-then-quarantine path.
  FailureKind failure = FailureKind::kNone;
  /// Canonical comma-joined violated property classes ("" when ok).
  std::string violation_classes;
  /// Per-class verdict breakdown (a run can violate several at once).
  bool violated_termination = false;
  bool violated_range = false;
  bool violated_uniqueness = false;
  bool violated_order = false;
  /// True: the run failed (threw or timed out) on every attempt and was
  /// excluded from the cell's aggregate. The sweep continues regardless.
  bool quarantined = false;
  /// Evaluation attempts consumed (1 = first try succeeded or was a
  /// normal verdict; > 1 = retries happened).
  int attempts = 0;
};

/// Deterministic per-cell aggregate, built online as runs finish (any
/// order, any thread count — see StreamingStats for why that is sound).
struct CellAggregate {
  /// Round-resolved aggregates across the cell's runs: entry i covers
  /// round i+1. Populated only with CampaignOptions::round_stats; grows
  /// to the longest run seen, so a stats object's count is less than
  /// `executed` for rounds some runs never reached. Deterministic like
  /// everything else here: the final length is the max over runs and
  /// each accumulator's state is a pure function of its (rep, value)
  /// sample set, neither depending on completion order.
  struct RoundStats {
    StreamingStats messages;
    StreamingStats bits;
    StreamingStats correct_messages;
    StreamingStats equivocating_sends;
  };

  std::size_t cell = 0;
  /// Reservoir salt shared by every accumulator of this cell (including
  /// per_round entries created later), splitmix64(cell index).
  std::uint64_t salt = 0;
  std::size_t executed = 0;
  std::size_t ok = 0;
  std::size_t terminated = 0;
  StreamingStats rounds;
  StreamingStats messages;
  StreamingStats correct_messages;
  StreamingStats bits;
  StreamingStats max_name;
  StreamingStats rejected_votes;
  std::uint64_t max_message_bits = 0;
  /// detail of the first violating repetition (lowest rep index).
  int first_violation_rep = -1;
  std::string first_violation;
  /// Runs excluded after exhausting retries; NOT part of `executed` and
  /// never folded into the stats, so the deterministic aggregate stays a
  /// pure function of the runs that actually completed.
  std::size_t quarantined = 0;
  /// Degradation curve: runs violating each property class. A run can
  /// count toward several classes at once.
  std::size_t degraded_termination = 0;
  std::size_t degraded_range = 0;
  std::size_t degraded_uniqueness = 0;
  std::size_t degraded_order = 0;
  /// See RoundStats; empty unless CampaignOptions::round_stats.
  std::vector<RoundStats> per_round;
};

/// Execution knobs, separate from the spec so the same spec can run
/// serial, parallel, or sharded and mean the same thing.
struct CampaignOptions {
  /// Worker threads; < 1 selects the hardware concurrency.
  int threads = 0;
  /// Cancel outstanding runs after the first checker violation. The
  /// aggregate of a cancelled campaign is NOT deterministic (which runs
  /// completed depends on timing); use for CI gating, not for recording.
  bool fail_fast = false;
  /// Execute only cells with index % shard_count == shard_index. The
  /// union of all shards' cell lines equals the unsharded campaign's.
  int shard_index = 0;
  int shard_count = 1;
  /// Stream one byzrename.run/1 line per finished run (mutex-guarded;
  /// lines never interleave). Optional `runs_bench` tags the lines.
  std::ostream* runs_out = nullptr;
  std::string runs_bench;
  /// Mutex guarding runs_out. Supply the stream's existing guard when
  /// other writers (obs::BenchReporter) share it; the engine uses an
  /// internal one when null.
  std::mutex* runs_out_mutex = nullptr;
  /// Sample exact-rational probes into runs_out lines (costly; off by
  /// default for sweep throughput).
  bool sample_probes = false;
  /// Aggregate per-round metric series into CellAggregate::per_round
  /// (emitted as the campaign/1 `per_round` array). Off by default so
  /// existing campaign outputs stay byte-identical; when on, the series
  /// are as deterministic as the cell stats — CI diffs --threads 1
  /// against --threads 8 byte-for-byte.
  bool round_stats = false;
  /// Per-run cooperative watchdog (exp/repro.h Watchdog); 0
  /// disables. A timed-out run is retried, then quarantined. NOTE:
  /// timeouts depend on wall clocks, so a campaign recorded for
  /// byte-comparison must run without one.
  double run_timeout_seconds = 0.0;
  /// Extra attempts after a run throws or times out, before it is
  /// quarantined. Checker violations are results, never retried.
  int quarantine_retries = 1;
  /// Attach a fresh obs/prof profiler to every run and merge the
  /// snapshots into CampaignResult::profiles (one phase-attributed
  /// aggregate per cell, byzrename.profile/1 kind "cell"). Count-based
  /// aggregate fields stay byte-identical across --threads values: the
  /// profiler observes, never steers, and per-run allocation attribution
  /// is thread-local. Off by default — per-round scope bracketing is
  /// cheap but not free at sweep volume.
  bool profile = false;
  /// Live progress observer (exp/progress.h), fed from worker threads
  /// and scraped by the obs/http /progress endpoint. Strictly read-only
  /// with respect to results: attaching one cannot change any
  /// deterministic output. Must outlive run_campaign. Null = off.
  ProgressTracker* progress = nullptr;
  /// Cooperative external cancellation (the campaign CLI's SIGINT
  /// path): when non-null and set, workers stop STARTING runs —
  /// in-flight runs complete, sinks stay flushed whole-line, and the
  /// partial result returns with cancelled (and interrupted) set.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-run hooks, invoked from worker threads. `configure` may attach
  /// observers (which must outlive the run; the watchdog and the
  /// runs_out sink follow them on the list) or tweak the config before
  /// the run; `inspect` sees the full ScenarioResult right after it.
  /// Both are called concurrently for distinct run indices and must not
  /// share unsynchronized state across indices.
  std::function<void(std::size_t run_index, core::ScenarioConfig&)> configure;
  std::function<void(std::size_t run_index, const core::ScenarioResult&)> inspect;
};

struct CampaignResult {
  /// Cells this execution was responsible for (after sharding), in
  /// deterministic expansion order.
  std::vector<CampaignCell> cells;
  /// cells.size() * repetitions records; run_index = cell slot *
  /// repetitions + rep. Records of cancelled runs have executed=false.
  std::vector<RunRecord> runs;
  /// One aggregate per entry of `cells`, same order.
  std::vector<CellAggregate> aggregates;
  /// Per-cell profile aggregates, same order as `cells`; empty unless
  /// CampaignOptions::profile. Quarantined runs never merge (their
  /// trees describe an aborted attempt, not a measurement).
  std::vector<obs::prof::ProfileAggregate> profiles;
  int threads = 1;
  double wall_seconds = 0.0;  ///< volatile whole-campaign wall clock
  std::size_t executed = 0;
  std::size_t violations = 0;
  /// Runs that failed every attempt and were excluded from aggregates.
  std::size_t quarantined = 0;
  std::size_t steals = 0;
  bool cancelled = false;
  /// True iff cancellation came from CampaignOptions::cancel (an
  /// operator interrupt) rather than fail-fast; the summary line
  /// carries it as `interrupted`.
  bool interrupted = false;

  [[nodiscard]] bool all_ok() const noexcept {
    return violations == 0 && quarantined == 0 && !cancelled;
  }
};

/// Expands the spec, runs every (cell, repetition) through
/// core::run_scenario on the work-stealing executor, and aggregates.
/// Throws std::invalid_argument on malformed specs (unknown adversary
/// names surface when the first affected run starts).
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          const CampaignOptions& options = {});

}  // namespace byzrename::exp

#endif  // BYZRENAME_EXP_CAMPAIGN_H
