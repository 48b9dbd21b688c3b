// T5 — Section V: in the regime N > t^2 + 2t, Alg. 1 with exactly 4
// voting iterations is strong order-preserving renaming in 8 steps.
//   Lemma V.1: namespace exactly N (the flood cannot add a single id).
//   Lemma V.2: after 4 iterations the spread is below (delta-1)/2.

#include <iostream>
#include <map>
#include <string>

#include "core/harness.h"
#include "core/probe.h"
#include "obs/bench_report.h"
#include "trace/table.h"

using namespace byzrename;
using numeric::Rational;

int main() {
  std::cout << "T5: constant-time strong renaming (Theorem V.3) at the regime edge N=t^2+2t+1\n\n";
  obs::BenchReporter reporter("bench_t5");
  trace::Table table({"N", "t", "adversary", "steps", "max name", "M=N", "final spread",
                      "(delta-1)/2", "verdict"});
  for (const int t : {1, 2, 3, 4, 5}) {
    const int n = t * t + 2 * t + 1;
    for (const char* adversary : {"idflood", "split", "suppress"}) {
      core::ScenarioConfig config;
      config.params = {.n = n, .t = t};
      config.algorithm = core::Algorithm::kOpRenamingConstantTime;
      config.adversary = adversary;
      config.seed = 5;
      Rational spread;
      obs::RoundProbe probe([&spread](sim::Round round, const sim::Network& net) {
        if (round == 8) spread = core::max_rank_spread(net);
      });
      config.observers.push_back(&probe);
      const core::ScenarioResult result = reporter.run(
          config,
          "N=" + std::to_string(n) + " t=" + std::to_string(t) + " adversary=" + adversary);
      const Rational margin = Rational::of(1, 6 * (n + t));
      table.add_row({std::to_string(n), std::to_string(t), adversary,
                     std::to_string(result.run.rounds), std::to_string(result.report.max_name),
                     std::to_string(n), trace::fmt_double(spread.to_double(), 9),
                     trace::fmt_double(margin.to_double(), 9),
                     result.report.all_ok() && spread < margin ? "ok" : "VIOLATION"});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected: 8 steps, max name <= N (strong), spread < (delta-1)/2 in every row.\n";
  reporter.announce(std::cout);
  return 0;
}
