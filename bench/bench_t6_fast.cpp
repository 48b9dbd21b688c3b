// T6 — Theorem VI.3 and Lemmas VI.1/VI.2: the 2-step algorithm at the
// regime edge N = 2t^2 + t + 1.
//
// Reports the measured per-id name discrepancy Delta (Lemma VI.1 bounds
// it by 2t^2), the minimum gap between consecutive correct names (Lemma
// VI.2 bounds it below by N-t), and the namespace actually used.

#include <algorithm>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/harness.h"
#include "core/probe.h"
#include "obs/bench_report.h"
#include "trace/table.h"

using namespace byzrename;

int main() {
  std::cout << "T6: 2-step renaming (Theorem VI.3) at the regime edge N=2t^2+t+1\n\n";
  obs::BenchReporter reporter("bench_t6");
  trace::Table table({"N", "t", "adversary", "steps", "max name", "M=N^2", "Delta", "2t^2",
                      "min gap", "N-t", "verdict"});
  for (const int t : {1, 2, 3, 4}) {
    const int n = 2 * t * t + t + 1;
    for (const char* adversary : {"idflood", "asymflood", "suppress", "random"}) {
      core::ScenarioConfig config;
      config.params = {.n = n, .t = t};
      config.algorithm = core::Algorithm::kFastRenaming;
      config.adversary = adversary;
      config.seed = 6;
      core::FastNameStats stats;
      obs::RoundProbe probe([&stats](sim::Round round, const sim::Network& net) {
        if (round == 2) stats = core::fast_name_stats(net);
      });
      config.observers.push_back(&probe);
      const core::ScenarioResult result = reporter.run(
          config,
          "N=" + std::to_string(n) + " t=" + std::to_string(t) + " adversary=" + adversary);
      const bool ok = result.report.all_ok() && stats.max_discrepancy <= 2 * t * t &&
                      stats.min_gap >= n - t;
      table.add_row({std::to_string(n), std::to_string(t), adversary,
                     std::to_string(result.run.rounds), std::to_string(result.report.max_name),
                     std::to_string(static_cast<sim::Name>(n) * n),
                     std::to_string(stats.max_discrepancy), std::to_string(2 * t * t),
                     std::to_string(stats.min_gap), std::to_string(n - t),
                     ok ? "ok" : "VIOLATION"});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected: 2 steps, names <= N^2, Delta <= 2t^2, min gap >= N-t everywhere.\n";
  reporter.announce(std::cout);
  return 0;
}
