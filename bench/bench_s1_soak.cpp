// S1 — soak sweep: every algorithm x every adversary x many seeds.
//
// Not a paper table; the release-confidence run. Expectation: zero
// property violations across the whole grid (thousands of executions).
// A nightly CI points here; a single violation prints its full repro
// coordinates (algorithm, N, t, adversary, seed).

#include <iostream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "core/harness.h"
#include "obs/bench_report.h"
#include "trace/table.h"

namespace {

using namespace byzrename;

struct GridPoint {
  core::Algorithm algorithm;
  int n;
  int t;
};

}  // namespace

int main() {
  const std::vector<GridPoint> grid = {
      {core::Algorithm::kOpRenaming, 4, 1},
      {core::Algorithm::kOpRenaming, 7, 2},
      {core::Algorithm::kOpRenaming, 10, 3},
      {core::Algorithm::kOpRenaming, 13, 4},
      {core::Algorithm::kOpRenaming, 16, 5},
      {core::Algorithm::kOpRenamingConstantTime, 16, 3},
      {core::Algorithm::kOpRenamingConstantTime, 25, 4},
      {core::Algorithm::kFastRenaming, 11, 2},
      {core::Algorithm::kFastRenaming, 22, 3},
      {core::Algorithm::kConsensusRenaming, 9, 2},
      {core::Algorithm::kBitRenaming, 10, 3},
      {core::Algorithm::kTranslatedRenaming, 9, 2},
      {core::Algorithm::kCrashRenaming, 9, 3},
  };
  constexpr std::uint64_t kSeeds = 10;

  long runs = 0;
  long violations = 0;
  trace::Table failures({"algorithm", "N", "t", "adversary", "seed", "detail"});
  obs::BenchReporter reporter("bench_s1");
  // Thousands of executions: keep the counters, skip the per-round
  // rational probes so the soak's runtime stays dominated by the runs.
  reporter.set_probes_enabled(false);

  for (const GridPoint& point : grid) {
    for (const std::string& adversary : adversary::adversary_names()) {
      // Crash-model baseline only faces benign strategies.
      if (point.algorithm == core::Algorithm::kCrashRenaming && adversary != "crash" &&
          adversary != "silent" && adversary != "mute") {
        continue;
      }
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        core::ScenarioConfig config;
        config.params = {.n = point.n, .t = point.t};
        config.algorithm = point.algorithm;
        config.adversary = adversary;
        config.seed = seed;
        const core::ScenarioResult result = reporter.run(
            config, std::string(core::to_string(point.algorithm)) + " N=" +
                        std::to_string(point.n) + " t=" + std::to_string(point.t) +
                        " adversary=" + adversary + " seed=" + std::to_string(seed));
        ++runs;
        const bool order_required = point.algorithm != core::Algorithm::kBitRenaming;
        const bool ok = result.report.validity && result.report.termination &&
                        result.report.uniqueness &&
                        (!order_required || result.report.order_preservation);
        if (!ok) {
          ++violations;
          failures.add_row({std::string(core::to_string(point.algorithm)),
                            std::to_string(point.n), std::to_string(point.t), adversary,
                            std::to_string(seed), result.report.detail});
        }
      }
    }
  }

  std::cout << "S1 soak: " << runs << " executions, " << violations << " violations\n";
  if (violations > 0) {
    std::cout << '\n';
    failures.print(std::cout);
    return 1;
  }
  std::cout << "every execution satisfied validity, termination, uniqueness"
               " (and order preservation where promised)\n";
  reporter.announce(std::cout);
  return 0;
}
