// campaign_small: exp::run_campaign over a small-N grid at nproc
// threads. At N <= 22 a run takes about a millisecond, so per-run
// set-up, adversary construction, the checker and executor scheduling
// are most of the cost; runs_per_s is the figure they move.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "core/harness.h"
#include "exp/campaign.h"
#include "obs/prof/alloc_profiler.h"
#include "sim/rng.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace byzrename;

constexpr int kRepetitions = 50;
/// Campaign master seeds generated per run; a run uses them in order.
constexpr int kPlannedCampaigns = 128;
constexpr int kSetupReps = 5;
/// Share of a traced run spent on whole campaigns; the rest rebuilds a
/// sample of their runs through the traced instance path.
constexpr double kTracedCampaignShare = 0.7;

std::uint64_t process_allocs() { return obs::prof::AllocProfiler::process_counts().count; }

exp::CampaignSpec make_spec() {
  exp::CampaignSpec spec;
  spec.name = "campaign_small";
  spec.algorithms = {core::Algorithm::kOpRenaming, core::Algorithm::kFastRenaming};
  spec.n_values = {13, 16, 22};
  spec.t_values = {3, 4};
  spec.adversaries = {"split", "idflood", "asymflood", "silent"};
  spec.repetitions = kRepetitions;
  return spec;
}

/// The config exp::run_campaign builds for repetition @p rep of @p cell.
core::ScenarioConfig run_config(const exp::CampaignSpec& spec, const exp::CampaignCell& cell,
                                int rep) {
  core::ScenarioConfig config;
  config.params = cell.params;
  config.algorithm = cell.algorithm;
  config.adversary = cell.adversary;
  config.actual_faults = spec.actual_faults;
  config.seed = exp::derive_seed(spec.master_seed, cell.index, static_cast<std::uint64_t>(rep));
  config.options = spec.options;
  config.extra_rounds = spec.extra_rounds;
  config.fault_plan = spec.fault_plan;
  return config;
}

struct Inputs {
  exp::CampaignSpec spec;
  std::vector<std::uint64_t> master_seeds;
};

Inputs make_inputs(const Options& options, Digest& digest) {
  Inputs inputs;
  inputs.spec = make_spec();
  for (const exp::CampaignCell& cell : exp::expand_cells(inputs.spec)) {
    digest.add(exp::cell_key(cell));
  }
  digest.add(static_cast<std::uint64_t>(kRepetitions));
  for (int k = 0; k < kPlannedCampaigns; ++k) {
    inputs.master_seeds.push_back(
        sim::Rng::derive_stream(options.seed, static_cast<std::uint64_t>(k)));
    digest.add(inputs.master_seeds.back());
  }
  return inputs;
}

/// Wrong-output check of one finished campaign: every run executed, ok
/// and not quarantined (the grid stays inside the model).
void check_campaign(const exp::CampaignResult& result, bool corrupt, Report& report) {
  report.attempted += result.runs.size();
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const exp::RunRecord& run = result.runs[i];
    const bool ok = run.executed && run.ok && !run.quarantined && !(corrupt && i == 0);
    if (!ok) {
      ++report.failed;
      report.wrong("campaign run seed " + std::to_string(run.seed) + " failed: " + run.detail);
    }
  }
}

}  // namespace

Report run_campaign(const Options& options) {
  Report report;
  Inputs inputs;
  report.metrics["setup_s"] = median_setup_seconds(kSetupReps, [&] {
    Digest digest;
    inputs = make_inputs(options, digest);
    report.input_digest = digest.value();
    // Warm-up: one repetition of every cell, so thread start-up and the
    // adversary registry are paid before timing.
    exp::CampaignSpec warm = inputs.spec;
    warm.repetitions = 1;
    warm.master_seed = inputs.master_seeds.back();
    if (!exp::run_campaign(warm).all_ok()) report.wrong("warm-up campaign failed");
  });

  exp::CampaignOptions run_options;
  run_options.threads = 0;  // nproc
  // Traced runs time each run from the configure to the inspect hook.
  std::vector<Clock::time_point> run_start;
  std::vector<Clock::time_point> run_end;
  if (options.trace) {
    const std::size_t runs = exp::expand_cells(inputs.spec).size() * kRepetitions;
    run_start.resize(runs);
    run_end.resize(runs);
    run_options.configure = [&](std::size_t index, core::ScenarioConfig&) {
      run_start[index] = Clock::now();
    };
    run_options.inspect = [&](std::size_t index, const core::ScenarioResult&) {
      run_end[index] = Clock::now();
    };
  }

  const double budget = options.trace ? options.seconds * kTracedCampaignShare : options.seconds;
  std::vector<double> rates;
  std::vector<double> campaign_walls;
  std::vector<double> run_walls;
  std::vector<double> run_s;
  std::vector<double> busy;
  std::vector<double> tails;
  std::vector<double> steals;
  std::uint64_t allocs = 0;
  std::size_t runs = 0;
  exp::CampaignSpec spec = inputs.spec;
  const auto start = Clock::now();
  for (const std::uint64_t master_seed : inputs.master_seeds) {
    if (!campaign_walls.empty() && seconds_since(start) + median(campaign_walls) > budget) break;
    spec.master_seed = master_seed;
    const std::uint64_t before = process_allocs();
    const auto t0 = Clock::now();
    const exp::CampaignResult result = exp::run_campaign(spec, run_options);
    const auto t1 = Clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    allocs += process_allocs() - before;
    campaign_walls.push_back(wall);
    rates.push_back(static_cast<double>(result.executed) / wall);
    runs += result.runs.size();
    for (const exp::RunRecord& run : result.runs) run_walls.push_back(run.wall_seconds);
    check_campaign(result, options.corrupt && campaign_walls.size() == 1, report);
    if (options.trace) {
      double sum = 0;
      Clock::time_point last = t0;
      for (std::size_t i = 0; i < run_start.size(); ++i) {
        const double seconds = std::chrono::duration<double>(run_end[i] - run_start[i]).count();
        run_s.push_back(seconds);
        sum += seconds;
        last = std::max(last, run_end[i]);
      }
      busy.push_back(sum / (result.threads * wall));
      tails.push_back(std::chrono::duration<double>(t1 - last).count());
      steals.push_back(static_cast<double>(result.steals));
    }
  }

  if (!options.trace) {
    report.metrics["instance_s"] = median(run_walls);
    report.metrics["runs_per_s"] = median(rates);
    report.metrics["allocs_per_instance"] = static_cast<double>(allocs) / static_cast<double>(runs);
    report.notes.push_back(describe("instance_s (run wall)", run_walls, "s"));
    report.notes.push_back(describe("runs_per_s (per campaign)", rates, "1/s"));
    return report;
  }

  const Summary run_summary = summarize(run_s);
  report.metrics["exp.run_s.p50"] = run_summary.median;
  report.metrics["exp.run_s.p99"] = percentile(run_s, 99);
  report.metrics["exp.busy_ratio"] = median(busy);
  report.metrics["exp.tail_s"] = median(tails);
  report.metrics["exp.steals"] = median(steals);

  // Rebuild repetition r of every cell of the last campaign through the
  // traced instance path, one thread, for the small-N layer split.
  SpanLog log;
  std::vector<TracedOutcome> traced;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  const std::vector<exp::CampaignCell> cells = exp::expand_cells(spec);
  bool same = true;
  for (int rep = 0; same && rep < kRepetitions; ++rep) {
    if (rep > 0 && seconds_since(start) >= options.seconds) break;
    for (const exp::CampaignCell& cell : cells) {
      double untraced_s = 0;
      double traced_s = 0;
      TracedOutcome outcome;
      ++report.attempted;
      const auto instance = static_cast<std::uint32_t>(traced.size());
      same = traced_pair(run_config(spec, cell, rep), log, instance, instance % 2 == 1, report,
                         untraced_s, traced_s, outcome);
      if (!same) {
        ++report.failed;
        break;
      }
      untraced_walls.push_back(untraced_s);
      traced_walls.push_back(traced_s);
      traced.push_back(std::move(outcome));
    }
  }
  report_layers(report, traced);
  report.metrics["samples"] = static_cast<double>(runs);
  report.metrics["trace.overhead"] = median(traced_walls) / median(untraced_walls) - 1.0;
  write_spans(log, options, report);
  return report;
}

}  // namespace perfbench
