// F1 — Lemmas IV.8/IV.9: per-iteration convergence of the voting phase.
//
// Prints, for each voting round, the maximum spread Delta_r of any timely
// id's rank across correct processes, next to the geometric envelope
// Delta_5 / sigma_t^(r-5) the paper guarantees. Also prints the final
// decision margin (delta-1)/2 that Lemma IV.9 requires. Output is CSV so
// the series can be plotted directly.
//
// The six profiled cases run concurrently on the src/exp campaign
// engine; each run's observer collects its spread series into a slot
// owned by that run index, so workers never share state, and the CSVs
// print in case order afterwards.

#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "core/harness.h"
#include "core/probe.h"
#include "exp/campaign.h"
#include "obs/bench_report.h"
#include "trace/csv.h"
#include "trace/table.h"

int main() {
  using namespace byzrename;
  using numeric::Rational;
  std::cout
      << "F1: voting-phase convergence Delta_r per round vs geometric envelope\n\n"
         "Reproduction note: adversaries that are honest during id selection (split, skew)\n"
         "provably cannot create ANY initial-rank divergence — all correct processes compute\n"
         "identical accepted sets, and trimming then removes the t faulty votes outright, so\n"
         "Delta_r stays 0. Divergence requires selection-phase asymmetry: the hybrid strategy\n"
         "(suppressed announcements + split-world votes) is the worst case profiled here.\n\n";
  obs::BenchReporter reporter("bench_f1");

  exp::CampaignSpec spec;
  spec.name = "bench_f1";
  spec.scenarios = {
      {core::Algorithm::kOpRenaming, {.n = 10, .t = 3}, "split"},
      {core::Algorithm::kOpRenaming, {.n = 10, .t = 3}, "hybrid"},
      {core::Algorithm::kOpRenaming, {.n = 10, .t = 3}, "asymflood"},
      {core::Algorithm::kOpRenaming, {.n = 13, .t = 4}, "asymflood"},
      {core::Algorithm::kOpRenaming, {.n = 25, .t = 8}, "asymflood"},
      {core::Algorithm::kOpRenaming, {.n = 40, .t = 13}, "asymflood"},
  };
  spec.master_seed = 3;

  // One spread series and one probe per run, owned by its run index: the
  // configure hook runs on worker threads, but distinct runs write
  // distinct slots.
  std::vector<std::vector<Rational>> spreads(spec.scenarios.size());
  const auto record_spreads = [&spreads](std::size_t run_index) {
    return obs::RoundProbe([&spreads, run_index](sim::Round round, const sim::Network& net) {
      if (round >= 4) {
        spreads[run_index].push_back(core::max_rank_spread(net, /*timely_only=*/true));
      }
    });
  };
  std::vector<decltype(record_spreads(0))> probes;
  for (std::size_t run_index = 0; run_index < spreads.size(); ++run_index) {
    probes.push_back(record_spreads(run_index));
  }
  exp::CampaignOptions options;
  options.sample_probes = true;
  options.configure = [&probes](std::size_t run_index, core::ScenarioConfig& config) {
    config.observers.push_back(&probes[run_index]);
  };
  const exp::CampaignResult result = reporter.run_campaign(spec, options);

  for (std::size_t slot = 0; slot < result.cells.size(); ++slot) {
    const exp::CampaignCell& cell = result.cells[slot];
    const exp::RunRecord& run = result.runs[slot];  // reps == 1: run slot == cell slot
    std::cout << "# N=" << cell.params.n << " t=" << cell.params.t
              << " adversary=" << cell.adversary << " sigma_t=" << core::sigma_t(cell.params)
              << " margin=(delta-1)/2=1/" << 6 * (cell.params.n + cell.params.t) << "\n";
    trace::CsvWriter csv(std::cout, {"round", "delta_r", "delta_r_float", "envelope_float"});
    const double sigma = core::sigma_t(cell.params);
    const std::vector<Rational>& series = spreads[slot];
    double envelope = series.empty() ? 0.0 : series.front().to_double();
    for (std::size_t i = 0; i < series.size(); ++i) {
      csv.write_row({std::to_string(4 + i), series[i].to_string(),
                     trace::fmt_double(series[i].to_double(), 9), trace::fmt_double(envelope, 9)});
      envelope /= sigma;
    }
    std::cout << "# verdict: " << (run.ok ? "all ok" : run.detail) << "\n\n";
  }
  std::cout << "[campaign] " << result.executed << " runs on " << result.threads
            << " thread(s) in " << result.wall_seconds << "s\n";
  reporter.announce(std::cout);
  return result.all_ok() ? 0 : 1;
}
