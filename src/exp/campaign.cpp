#include "exp/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "exp/executor.h"
#include "exp/progress.h"
#include "exp/repro.h"
#include "obs/prof/profiler.h"
#include "obs/run_report.h"
#include "sim/rng.h"

namespace byzrename::exp {

bool cell_valid(core::Algorithm algorithm, const sim::SystemParams& params) {
  if (params.n < 1 || params.t < 0 || params.t >= params.n) return false;
  switch (algorithm) {
    case core::Algorithm::kOpRenaming:
      return core::valid_for_op_renaming(params);
    case core::Algorithm::kOpRenamingConstantTime:
      return core::valid_for_constant_time(params);
    case core::Algorithm::kFastRenaming:
      return core::valid_for_fast_renaming(params);
    case core::Algorithm::kConsensusRenaming:
      return params.n > 4 * params.t;
    case core::Algorithm::kCrashRenaming:
    case core::Algorithm::kBitRenaming:
    case core::Algorithm::kTranslatedRenaming:
      return core::valid_for_op_renaming(params);
    case core::Algorithm::kScalarAA:
      return false;  // not a scenario algorithm (run_scenario rejects it)
  }
  return false;
}

std::vector<CampaignCell> expand_cells(const CampaignSpec& spec) {
  std::vector<CampaignCell> cells;
  std::vector<sim::SystemParams> grid_systems;
  for (const int n : spec.n_values) {
    for (const int t : spec.t_values) grid_systems.push_back({.n = n, .t = t});
  }
  grid_systems.insert(grid_systems.end(), spec.systems.begin(), spec.systems.end());

  for (const core::Algorithm algorithm : spec.algorithms) {
    for (const sim::SystemParams& params : grid_systems) {
      if (spec.skip_invalid && !cell_valid(algorithm, params)) continue;
      for (const std::string& adversary : spec.adversaries) {
        cells.push_back({cells.size(), algorithm, params, adversary});
      }
    }
  }
  for (const CampaignScenario& scenario : spec.scenarios) {
    cells.push_back({cells.size(), scenario.algorithm, scenario.params, scenario.adversary});
  }
  return cells;
}

std::uint64_t derive_seed(std::uint64_t master_seed, std::uint64_t cell, std::uint64_t rep) {
  return sim::Rng::derive_stream(sim::Rng::derive_stream(master_seed, cell), rep);
}

std::string cell_key(const CampaignCell& cell) {
  std::string key(core::to_string(cell.algorithm));
  key += "/n" + std::to_string(cell.params.n);
  key += "/t" + std::to_string(cell.params.t);
  key += "/" + cell.adversary;
  return key;
}

namespace {

CellAggregate make_aggregate(const CampaignCell& cell) {
  // Salting the reservoir hash with the global cell index makes the
  // sample selection a pure function of (cell, rep): identical between
  // the unsharded campaign and any shard that contains the cell.
  const std::uint64_t salt = sim::splitmix64(cell.index);
  CellAggregate aggregate;
  aggregate.cell = cell.index;
  aggregate.salt = salt;
  aggregate.rounds = StreamingStats(StreamingStats::kDefaultReservoir, salt);
  aggregate.messages = StreamingStats(StreamingStats::kDefaultReservoir, salt);
  aggregate.correct_messages = StreamingStats(StreamingStats::kDefaultReservoir, salt);
  aggregate.bits = StreamingStats(StreamingStats::kDefaultReservoir, salt);
  aggregate.max_name = StreamingStats(StreamingStats::kDefaultReservoir, salt);
  aggregate.rejected_votes = StreamingStats(StreamingStats::kDefaultReservoir, salt);
  return aggregate;
}

void fold_run(CellAggregate& aggregate, const RunRecord& record) {
  if (record.quarantined) {
    // Quarantined runs never enter the deterministic aggregate: their
    // outcome is an infrastructure failure, not a measurement.
    aggregate.quarantined += 1;
    return;
  }
  const auto rep = static_cast<std::uint64_t>(record.rep);
  aggregate.executed += 1;
  aggregate.degraded_termination += record.violated_termination ? 1 : 0;
  aggregate.degraded_range += record.violated_range ? 1 : 0;
  aggregate.degraded_uniqueness += record.violated_uniqueness ? 1 : 0;
  aggregate.degraded_order += record.violated_order ? 1 : 0;
  aggregate.ok += record.ok ? 1 : 0;
  aggregate.terminated += record.terminated ? 1 : 0;
  aggregate.rounds.add(rep, record.rounds);
  aggregate.messages.add(rep, static_cast<std::int64_t>(record.messages));
  aggregate.correct_messages.add(rep, static_cast<std::int64_t>(record.correct_messages));
  aggregate.bits.add(rep, static_cast<std::int64_t>(record.bits));
  aggregate.max_name.add(rep, record.max_name);
  aggregate.rejected_votes.add(rep, record.rejected_votes);
  aggregate.max_message_bits = std::max(aggregate.max_message_bits, record.max_message_bits);
  if (!record.ok &&
      (aggregate.first_violation_rep < 0 || record.rep < aggregate.first_violation_rep)) {
    aggregate.first_violation_rep = record.rep;
    aggregate.first_violation = record.detail;
  }
}

/// Folds one run's per-round series into the cell's round-resolved
/// aggregates, growing the vector to the longest run seen so far. The
/// growth is deterministic: the final length is max(rounds) over the
/// cell's runs and every new accumulator starts from the cell salt, so
/// neither depends on which run arrived first.
void fold_round_stats(CellAggregate& aggregate, const RunRecord& record,
                      const std::vector<sim::RoundMetrics>& per_round) {
  if (per_round.size() > aggregate.per_round.size()) {
    aggregate.per_round.reserve(per_round.size());
    while (aggregate.per_round.size() < per_round.size()) {
      CellAggregate::RoundStats stats;
      stats.messages = StreamingStats(StreamingStats::kDefaultReservoir, aggregate.salt);
      stats.bits = StreamingStats(StreamingStats::kDefaultReservoir, aggregate.salt);
      stats.correct_messages =
          StreamingStats(StreamingStats::kDefaultReservoir, aggregate.salt);
      stats.equivocating_sends =
          StreamingStats(StreamingStats::kDefaultReservoir, aggregate.salt);
      aggregate.per_round.push_back(std::move(stats));
    }
  }
  const auto rep = static_cast<std::uint64_t>(record.rep);
  for (std::size_t i = 0; i < per_round.size(); ++i) {
    const sim::RoundMetrics& m = per_round[i];
    CellAggregate::RoundStats& stats = aggregate.per_round[i];
    stats.messages.add(rep, static_cast<std::int64_t>(m.messages));
    stats.bits.add(rep, static_cast<std::int64_t>(m.bits));
    stats.correct_messages.add(rep, static_cast<std::int64_t>(m.correct_messages));
    stats.equivocating_sends.add(rep, static_cast<std::int64_t>(m.equivocating_sends));
  }
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec, const CampaignOptions& options) {
  if (spec.repetitions < 1) {
    throw std::invalid_argument("run_campaign: repetitions must be >= 1");
  }
  if (options.shard_count < 1 || options.shard_index < 0 ||
      options.shard_index >= options.shard_count) {
    throw std::invalid_argument("run_campaign: shard index must satisfy 0 <= i < k");
  }

  CampaignResult result;
  for (CampaignCell& cell : expand_cells(spec)) {
    if (static_cast<int>(cell.index % static_cast<std::size_t>(options.shard_count)) ==
        options.shard_index) {
      result.cells.push_back(std::move(cell));
    }
  }
  const std::size_t reps = static_cast<std::size_t>(spec.repetitions);
  const std::size_t total_runs = result.cells.size() * reps;
  result.runs.resize(total_runs);
  result.aggregates.reserve(result.cells.size());
  for (const CampaignCell& cell : result.cells) result.aggregates.push_back(make_aggregate(cell));
  if (options.profile) result.profiles.resize(result.cells.size());

  Executor executor(options.threads);
  result.threads = executor.threads();
  if (options.progress != nullptr) {
    options.progress->begin(spec.name, result.cells, reps, executor.threads());
  }

  // One mutex per cell guards its aggregate; a separate mutex serializes
  // whole lines on the shared runs_out stream.
  std::vector<std::mutex> cell_mutexes(result.cells.empty() ? 1 : result.cells.size());
  std::mutex internal_runs_mutex;
  std::mutex* runs_mutex =
      options.runs_out_mutex != nullptr ? options.runs_out_mutex : &internal_runs_mutex;
  std::atomic<std::size_t> violations{0};
  std::atomic<std::size_t> quarantined{0};
  // Tasks dequeued but skipped by an external interrupt: the executor
  // counts them as executed (it ran the callable), the campaign must not.
  std::atomic<std::size_t> skipped{0};

  const auto task = [&](std::size_t run_index) {
    // External interrupt (SIGINT via the campaign CLI): stop starting
    // runs. This run was already dequeued, so it is skipped outright —
    // its record keeps executed=false, same as never-started tasks.
    if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
      executor.cancel();
      skipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (options.progress != nullptr) options.progress->task_started();
    const std::size_t slot = run_index / reps;
    const int rep = static_cast<int>(run_index % reps);
    const CampaignCell& cell = result.cells[slot];
    RunRecord& record = result.runs[run_index];
    record.cell = cell.index;
    record.rep = rep;
    record.seed = derive_seed(spec.master_seed, cell.index, static_cast<std::uint64_t>(rep));

    core::ScenarioConfig base_config;
    base_config.params = cell.params;
    base_config.algorithm = cell.algorithm;
    base_config.adversary = cell.adversary;
    base_config.actual_faults = spec.actual_faults;
    base_config.seed = record.seed;
    base_config.options = spec.options;
    base_config.extra_rounds = spec.extra_rounds;
    base_config.fault_plan = spec.fault_plan;
    if (options.configure) options.configure(run_index, base_config);

    // Per-round series of the successful attempt, kept on this worker's
    // frame until the cell mutex is held (RunRecord deliberately does
    // not carry per-round vectors).
    std::vector<sim::RoundMetrics> per_round_copy;
    // Profile tree of the successful attempt, same lifecycle: one fresh
    // profiler per attempt (its scope stack is per-run state), snapshot
    // taken on this worker's frame, merged under the cell mutex.
    std::optional<obs::prof::ProfileSnapshot> profile_copy;

    // Retry-then-quarantine: exceptions and watchdog timeouts are
    // infrastructure failures, so the run gets fresh attempts; a checker
    // violation is a RESULT and is recorded on the first attempt. A run
    // still failing after all attempts is quarantined — the sweep itself
    // always survives individual run failures.
    const int max_attempts = 1 + std::max(0, options.quarantine_retries);
    const auto start = std::chrono::steady_clock::now();
    for (record.attempts = 1; record.attempts <= max_attempts; ++record.attempts) {
      core::ScenarioConfig config = base_config;
      // The watchdog follows whatever observers `configure` installed, so
      // a hang inside a caller-attached probe is caught too. The deadline
      // starts per attempt.
      std::optional<Watchdog> watchdog;
      if (options.run_timeout_seconds > 0.0) {
        config.observers.push_back(&watchdog.emplace(options.run_timeout_seconds));
      }
      // Per-attempt run report on this worker's frame; the sinks write
      // whole lines under runs_out_mutex, so parallel runs cannot
      // interleave partial JSONL.
      std::optional<obs::RunReportSink> sink;
      if (options.runs_out != nullptr) {
        sink.emplace(*options.runs_out, options.runs_bench, runs_mutex);
        sink->set_probes_enabled(options.sample_probes);
        sink->set_label(cell_key(cell) + "/rep" + std::to_string(rep));
        config.observers.push_back(&*sink);
      }
      std::optional<obs::prof::Profiler> profiler;
      if (options.profile) {
        profiler.emplace();
        config.profiler = &*profiler;
      }
      try {
        const core::ScenarioResult scenario = core::run_scenario(config);
        if (options.round_stats) per_round_copy = scenario.run.metrics.per_round();
        if (profiler) profile_copy = profiler->snapshot();
        record.ok = scenario.report.all_ok();
        record.failure = record.ok ? FailureKind::kNone : FailureKind::kViolation;
        record.terminated = scenario.run.terminated;
        record.rounds = scenario.run.rounds;
        record.max_name = scenario.report.max_name;
        record.messages = scenario.run.metrics.total_messages();
        record.bits = scenario.run.metrics.total_bits();
        record.correct_messages = scenario.run.metrics.total_correct_messages();
        record.correct_bits = scenario.run.metrics.total_correct_bits();
        record.equivocating_sends = scenario.run.metrics.total_equivocating_sends();
        record.max_message_bits = scenario.run.metrics.max_message_bits();
        record.max_correct_message_bits = scenario.run.metrics.max_correct_message_bits();
        record.min_accepted = scenario.min_accepted;
        record.max_accepted = scenario.max_accepted;
        record.rejected_votes = scenario.total_rejected;
        record.violation_classes = scenario.report.classes();
        record.violated_termination = !scenario.report.termination;
        record.violated_range = !scenario.report.validity;
        record.violated_uniqueness = !scenario.report.uniqueness;
        record.violated_order = !scenario.report.order_preservation;
        if (!record.ok) record.detail = scenario.report.detail;
        record.quarantined = false;
        if (options.inspect) options.inspect(run_index, scenario);
        break;
      } catch (const RunTimeoutError& error) {
        record.ok = false;
        record.failure = FailureKind::kTimeout;
        record.detail = error.what();
        record.quarantined = true;
      } catch (const std::exception& error) {
        record.ok = false;
        record.failure = FailureKind::kException;
        record.detail = error.what();
        record.quarantined = true;
      }
    }
    record.attempts = std::min(record.attempts, max_attempts);
    record.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    record.executed = true;

    {
      const std::lock_guard<std::mutex> lock(cell_mutexes[slot]);
      fold_run(result.aggregates[slot], record);
      if (options.round_stats && !record.quarantined) {
        fold_round_stats(result.aggregates[slot], record, per_round_copy);
      }
      if (profile_copy && !record.quarantined) {
        result.profiles[slot].merge(*profile_copy);
      }
    }
    if (record.quarantined) {
      quarantined.fetch_add(1, std::memory_order_relaxed);
      if (options.fail_fast) executor.cancel();
    } else if (!record.ok) {
      violations.fetch_add(1, std::memory_order_relaxed);
      if (options.fail_fast) executor.cancel();
    }
    if (options.progress != nullptr) {
      options.progress->task_finished(slot, record.ok, record.quarantined);
    }
  };

  const auto campaign_start = std::chrono::steady_clock::now();
  const Executor::Stats stats = executor.run(total_runs, task);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - campaign_start).count();
  result.executed = stats.executed - skipped.load(std::memory_order_relaxed);
  result.steals = stats.stolen;
  result.violations = violations.load(std::memory_order_relaxed);
  result.quarantined = quarantined.load(std::memory_order_relaxed);
  result.cancelled = executor.cancelled();
  result.interrupted =
      options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed);
  if (options.progress != nullptr) options.progress->finish(result.interrupted);
  return result;
}

}  // namespace byzrename::exp
