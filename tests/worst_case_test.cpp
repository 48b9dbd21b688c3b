// Tests for the calibrated worst-case executions: the asymmetric flood
// (Lemma IV.7 met with equality) and the orderbreak attack (the
// execution isValid exists to stop). These pin down the adversary
// library's sharpest tools so the benches built on them stay honest.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <vector>

#include "core/fast_renaming.h"
#include "core/harness.h"
#include "core/op_renaming.h"
#include "core/probe.h"
#include "numeric/rational.h"
#include "obs/telemetry.h"

namespace byzrename::core {
namespace {

using numeric::Rational;

/// Max spread of any id's rank across correct processes at round @p at.
Rational spread_at_round(ScenarioConfig config, sim::Round at) {
  Rational spread;
  obs::RoundProbe probe([&spread, at](sim::Round round, const sim::Network& net) {
    if (round == at) spread = max_rank_spread(net);
  });
  config.observers.push_back(&probe);
  (void)run_scenario(config);
  return spread;
}

TEST(AsymFlood, SaturatesLemmaIV7Exactly) {
  // Initial discrepancy == (t + floor(t^2/(N-2t))) * delta, exactly.
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{10, 3}, {13, 4}, {25, 8}}) {
    ScenarioConfig config;
    config.params = {.n = n, .t = t};
    config.adversary = "asymflood";
    config.seed = 1;
    const Rational initial = spread_at_round(config, 4);
    const Rational bound =
        Rational(t + (t * t) / (n - 2 * t)) * delta({.n = n, .t = t});
    EXPECT_EQ(initial, bound) << "n=" << n << " t=" << t;
  }
}

TEST(AsymFlood, FakesStayOutOfEveryTimelySet) {
  // The calibration keeps every fake strictly below the timely threshold
  // — otherwise Lemma IV.1 would force symmetric acceptance.
  ScenarioConfig config;
  config.params = {.n = 13, .t = 4};
  config.adversary = "asymflood";
  config.seed = 1;
  bool checked = false;
  obs::RoundProbe probe([&checked](sim::Round round, const sim::Network& net) {
    if (round != 4) return;
    for (sim::ProcessIndex i = 0; i < net.size(); ++i) {
      if (net.is_byzantine(i)) continue;
      const auto& op = dynamic_cast<const OpRenamingProcess&>(net.behavior(i));
      // Timely must be exactly the 9 correct ids.
      EXPECT_EQ(op.timely().size(), 9u);
      checked = true;
    }
  });
  config.observers.push_back(&probe);
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(checked);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
}

TEST(AsymFlood, RenamingSurvivesTheWorstCase) {
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{10, 3}, {13, 4}, {16, 5}, {25, 8}}) {
    ScenarioConfig config;
    config.params = {.n = n, .t = t};
    config.adversary = "asymflood";
    config.seed = 2;
    const ScenarioResult result = run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << "n=" << n << " t=" << t << ": " << result.report.detail;
  }
}

TEST(AsymFlood, SpreadContractsEveryVotingRound) {
  ScenarioConfig base;
  base.params = {.n = 13, .t = 4};
  base.adversary = "asymflood";
  base.seed = 1;
  ScenarioConfig at5 = base;
  ScenarioConfig at9 = base;
  const Rational early = spread_at_round(at5, 6);
  const Rational later = spread_at_round(at9, 10);
  EXPECT_GT(early, Rational(0));
  EXPECT_GT(later, Rational(0));
  // Four rounds at contraction factor >= 2 shrink by >= 16.
  EXPECT_LE(later * Rational(16), early);
}

TEST(AsymFlood, SaturatesLemmaVI1Against2StepAlgorithm) {
  // The Alg. 4 flavor reaches the per-id name discrepancy bound of
  // Lemma VI.1 (Delta == 2t^2) exactly, while order preservation
  // survives by the single name Lemma VI.2's N-t gap leaves over.
  for (const int t : {1, 2, 3}) {
    const int n = 2 * t * t + t + 1;
    ScenarioConfig config;
    config.params = {.n = n, .t = t};
    config.algorithm = Algorithm::kFastRenaming;
    config.adversary = "asymflood";
    config.seed = 1;
    sim::Name max_discrepancy = 0;
    obs::RoundProbe probe([&max_discrepancy](sim::Round round, const sim::Network& net) {
      if (round == 2) max_discrepancy = fast_name_stats(net).max_discrepancy;
    });
    config.observers.push_back(&probe);
    const ScenarioResult result = run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << "t=" << t << ": " << result.report.detail;
    EXPECT_EQ(max_discrepancy, 2 * t * t) << "t=" << t;
  }
}

TEST(AsymFlood, CorollaryIV5TimelyIdsAreNeverDropped) {
  // Corollary IV.5: an id in any correct process's timely set keeps
  // receiving >= N-t valid votes and is never discarded by approximate();
  // the asymmetric flood is the strongest pressure on that guarantee.
  ScenarioConfig config;
  config.params = {.n = 13, .t = 4};
  config.adversary = "asymflood";
  config.seed = 4;
  bool checked = false;
  obs::RoundProbe probe([&checked](sim::Round round, const sim::Network& net) {
    if (round <= 4) return;
    for (sim::ProcessIndex i = 0; i < net.size(); ++i) {
      if (net.is_byzantine(i)) continue;
      const auto& op = dynamic_cast<const OpRenamingProcess&>(net.behavior(i));
      for (const sim::Id id : op.timely()) {
        EXPECT_TRUE(op.ranks().contains(id))
            << "timely id " << id << " lost its rank in round " << round;
        EXPECT_TRUE(op.accepted().contains(id))
            << "timely id " << id << " dropped from accepted in round " << round;
        checked = true;
      }
    }
  });
  config.observers.push_back(&probe);
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  EXPECT_TRUE(checked);
}

TEST(OrderBreak, HarmlessWithValidationOn) {
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{10, 3}, {13, 4}, {25, 8}}) {
    ScenarioConfig config;
    config.params = {.n = n, .t = t};
    config.adversary = "orderbreak";
    config.seed = 1;
    const ScenarioResult result = run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << "n=" << n << " t=" << t << ": " << result.report.detail;
  }
}

TEST(OrderBreak, BreaksRenamingWithValidationAblated) {
  // The demonstration behind bench_a2: without Alg. 2's isValid filter
  // the very same adversary destroys uniqueness/order. This test pins
  // the ablation's behaviour so the bench's story stays true; it is NOT
  // a statement about the production configuration (validate_votes
  // defaults to true and the test above covers it).
  int broken = 0;
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{10, 3}, {13, 4}, {25, 8}}) {
    ScenarioConfig config;
    config.params = {.n = n, .t = t};
    config.adversary = "orderbreak";
    config.options.validate_votes = false;
    config.seed = 1;
    const ScenarioResult result = run_scenario(config);
    if (!result.report.uniqueness || !result.report.order_preservation) ++broken;
  }
  EXPECT_GE(broken, 2) << "the ablated configuration should break in most sizes";
}

TEST(Hybrid, SelectionHonestAdversariesCannotDiverge) {
  // The F1 finding as a test: adversaries that run id selection honestly
  // leave all correct processes with identical ranks (spread 0 at every
  // voting round); only selection-phase attacks create divergence.
  for (const char* adversary : {"split", "skew"}) {
    ScenarioConfig config;
    config.params = {.n = 10, .t = 3};
    config.adversary = adversary;
    config.seed = 1;
    EXPECT_EQ(spread_at_round(config, 8), Rational(0)) << adversary;
  }
  ScenarioConfig asym;
  asym.params = {.n = 10, .t = 3};
  asym.adversary = "asymflood";
  asym.seed = 1;
  EXPECT_GT(spread_at_round(asym, 8), Rational(0));
}

}  // namespace
}  // namespace byzrename::core
