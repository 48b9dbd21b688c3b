// alg1_split / alg1_silent_dup: a sequence of seeded Alg. 1 instances at
// N=128, t=42 on one thread. `split` equivocates in every voting round,
// so adversary vote building and vote admission dominate and the
// network takes its bulk-broadcast path. `silent` does no adversary work
// and `dup:0.05` forces the per-delivery path through the FaultInjector;
// an adversary-side change must leave this workload unchanged.
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "core/harness.h"
#include "core/voting_kernel.h"
#include "obs/prof/alloc_profiler.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace byzrename;

constexpr int kN = 128;
constexpr int kT = 42;
/// Inputs generated per run; a run consumes them in order until its time
/// is up (an instance takes 0.4-2.5 s, so 256 outlast any run length).
constexpr int kPlannedInstances = 256;
constexpr int kSetupReps = 9;
constexpr int kVotingSteps = 400;
constexpr int kVotingBatch = 20;

std::uint64_t process_allocs() { return obs::prof::AllocProfiler::process_counts().count; }

std::vector<core::ScenarioConfig> make_inputs(const Options& options, Digest& digest) {
  const bool split = options.workload == "alg1_split";
  const sim::FaultPlan plan = split ? sim::FaultPlan{} : sim::parse_fault_plan("dup:0.05");
  std::vector<core::ScenarioConfig> inputs;
  inputs.reserve(kPlannedInstances);
  for (int i = 0; i < kPlannedInstances; ++i) {
    core::ScenarioConfig config;
    config.params = {.n = kN, .t = kT};
    config.algorithm = core::Algorithm::kOpRenaming;
    config.adversary = split ? "split" : "silent";
    config.fault_plan = plan;
    config.seed = sim::Rng::derive_stream(options.seed, static_cast<std::uint64_t>(i));
    config.correct_ids = core::generate_ids(kN - kT, sim::Rng::derive_stream(config.seed, 1));
    digest.add(core::cli_token(config.algorithm));
    digest.add(static_cast<std::uint64_t>(kN));
    digest.add(static_cast<std::uint64_t>(kT));
    digest.add(config.adversary);
    digest.add(sim::to_spec(plan));
    digest.add(config.seed);
    for (const sim::Id id : config.correct_ids) digest.add(static_cast<std::uint64_t>(id));
    inputs.push_back(std::move(config));
  }
  return inputs;
}

/// The checker verdict of @p result, or of a copy with one decision
/// overwritten by another process's name when @p corrupt is set (the
/// smoke test's proof that a wrong output fails the run).
bool instance_ok(const core::ScenarioResult& result, bool corrupt) {
  if (!corrupt) return result.report.all_ok() && result.run.terminated;
  std::vector<core::NamedProcess> named = result.named;
  named[0].new_name = named[1].new_name;
  return core::check_renaming(named, result.target_namespace).all_ok();
}

/// A warmed FixedVotingEngine::step over a full N=128 inbox of honest
/// votes: the rank kernel's share of a voting round. Median seconds per
/// step over batches, and the allocations of all measured steps.
std::pair<double, std::uint64_t> voting_step(CpuRotation& cpus) {
  const sim::SystemParams params{.n = kN, .t = kT};
  core::FixedVotingEngine engine(params, core::RenamingOptions{},
                                 core::default_approximation_iterations(kT));
  std::set<sim::Id> accepted;
  for (int i = 0; i < kN; ++i) accepted.insert(i + 1);
  engine.assign_initial_ranks(accepted);
  const std::set<sim::Id> timely = accepted;
  const sim::PayloadRef vote = engine.encode_ranks();
  sim::Inbox inbox;
  for (int link = 0; link < kN; ++link) inbox.push_back({link, vote});
  int rejected = 0;
  engine.step(inbox, timely, accepted, rejected);
  engine.step(inbox, timely, accepted, rejected);
  std::vector<double> per_step;
  per_step.reserve(kVotingSteps / kVotingBatch);
  const std::uint64_t before = process_allocs();
  for (int batch = 0; batch < kVotingSteps / kVotingBatch; ++batch) {
    cpus.next();
    const auto start = Clock::now();
    for (int s = 0; s < kVotingBatch; ++s) engine.step(inbox, timely, accepted, rejected);
    per_step.push_back(seconds_since(start) / kVotingBatch);
  }
  const std::uint64_t allocs = process_allocs() - before;
  return {median(per_step), allocs};
}

}  // namespace

Report run_alg1(const Options& options) {
  Report report;
  // One thread throughout, so every step may rotate CPUs.
  CpuRotation cpus;
  std::vector<core::ScenarioConfig> inputs;
  report.metrics["setup_s"] = median_setup_seconds(kSetupReps, [&] {
    cpus.next();
    Digest digest;
    inputs = make_inputs(options, digest);
    report.input_digest = digest.value();
  });

  if (!options.trace) {
    std::vector<double> walls;
    double total_s = 0;
    std::uint64_t allocs = 0;
    const auto start = Clock::now();
    for (const core::ScenarioConfig& config : inputs) {
      if (!walls.empty() && seconds_since(start) + median(walls) > options.seconds) break;
      cpus.next();
      const std::uint64_t before = process_allocs();
      const auto t0 = Clock::now();
      const core::ScenarioResult result = core::run_scenario(config);
      const double wall = seconds_since(t0);
      allocs += process_allocs() - before;
      walls.push_back(wall);
      total_s += wall;
      ++report.attempted;
      if (!instance_ok(result, options.corrupt && walls.size() == 1)) {
        ++report.failed;
        report.wrong("instance seed " + std::to_string(config.seed) + " is not all_ok: " +
                     result.report.detail);
      }
    }
    const double count = static_cast<double>(walls.size());
    report.metrics["instance_s"] = median(walls);
    report.metrics["runs_per_s"] = count / total_s;
    report.metrics["allocs_per_instance"] = static_cast<double>(allocs) / count;
    report.notes.push_back(describe("instance_s", walls, "s"));
    std::string each = "instance walls (s):";
    for (const double wall : walls) each += " " + std::to_string(wall);
    report.notes.push_back(each);
    return report;
  }

  const auto [step_s, step_allocs] = voting_step(cpus);
  report.metrics["core.voting_step_s"] = step_s;
  report.metrics["core.voting_step_allocs"] = static_cast<double>(step_allocs);
  if (step_allocs != 0) report.wrong("warmed voting step allocated");

  SpanLog log;
  std::vector<TracedOutcome> traced;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  const auto start = Clock::now();
  for (const core::ScenarioConfig& config : inputs) {
    if (!untraced_walls.empty() &&
        seconds_since(start) + median(untraced_walls) + median(traced_walls) > options.seconds) {
      break;
    }
    cpus.next();
    double untraced_s = 0;
    double traced_s = 0;
    TracedOutcome outcome;
    ++report.attempted;
    const bool same = traced_pair(config, log, static_cast<std::uint32_t>(traced.size()),
                                  traced.size() % 2 == 1, report, untraced_s, traced_s, outcome);
    if (!same || !outcome.all_ok) {
      ++report.failed;
      if (same) report.wrong("traced instance is not all_ok");
      break;
    }
    untraced_walls.push_back(untraced_s);
    traced_walls.push_back(traced_s);
    traced.push_back(std::move(outcome));
  }
  report_layers(report, traced);
  report.metrics["samples"] = static_cast<double>(traced.size());
  report.metrics["trace.overhead"] = median(traced_walls) / median(untraced_walls) - 1.0;
  write_spans(log, options, report);
  return report;
}

}  // namespace perfbench
