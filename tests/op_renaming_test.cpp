#include "core/op_renaming.h"

#include <gtest/gtest.h>

#include <map>

#include "core/harness.h"
#include "numeric/rational.h"
#include "obs/telemetry.h"

namespace byzrename::core {
namespace {

using numeric::Rational;

TEST(OpRenaming, RejectsInsufficientResilience) {
  EXPECT_THROW(OpRenamingProcess({.n = 6, .t = 2}, 1), std::invalid_argument);
  EXPECT_THROW(OpRenamingProcess({.n = 3, .t = 1}, 1), std::invalid_argument);
  EXPECT_NO_THROW(OpRenamingProcess({.n = 7, .t = 2}, 1));
}

TEST(OpRenaming, TotalStepsMatchesPaperFormula) {
  // 3*ceil(log2 t) + 7 steps total (Section IV-D).
  EXPECT_EQ(OpRenamingProcess({.n = 4, .t = 1}, 1).total_steps(), 7);    // log 1 = 0
  EXPECT_EQ(OpRenamingProcess({.n = 7, .t = 2}, 1).total_steps(), 10);   // 3*1+7
  EXPECT_EQ(OpRenamingProcess({.n = 13, .t = 4}, 1).total_steps(), 13);  // 3*2+7
  EXPECT_EQ(OpRenamingProcess({.n = 22, .t = 7}, 1).total_steps(), 16);  // 3*3+7
}

TEST(OpRenaming, NoFaultsYieldsRankOrder) {
  ScenarioConfig config;
  config.params = {.n = 6, .t = 0};
  config.adversary = "silent";
  config.actual_faults = 0;
  const ScenarioResult result = run_scenario(config);
  ASSERT_TRUE(result.report.all_ok()) << result.report.detail;
  // With t = 0 names are exactly the sorted ranks 1..N.
  for (std::size_t i = 0; i < result.named.size(); ++i) {
    EXPECT_EQ(result.named[i].new_name, static_cast<sim::Name>(i + 1));
  }
  EXPECT_EQ(result.run.rounds, 4);  // no voting phase needed
}

TEST(OpRenaming, SilentFaultsStillRenameCorrectly) {
  ScenarioConfig config;
  config.params = {.n = 7, .t = 2};
  config.adversary = "silent";
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  EXPECT_LE(result.report.max_name, 7 + 2 - 1);
  EXPECT_EQ(result.run.rounds, 10);
}

TEST(OpRenaming, DeterministicAcrossIdenticalSeeds) {
  ScenarioConfig config;
  config.params = {.n = 10, .t = 3};
  config.adversary = "random";
  config.seed = 42;
  const ScenarioResult a = run_scenario(config);
  const ScenarioResult b = run_scenario(config);
  ASSERT_EQ(a.named.size(), b.named.size());
  for (std::size_t i = 0; i < a.named.size(); ++i) {
    EXPECT_EQ(a.named[i].new_name, b.named[i].new_name);
  }
}

TEST(OpRenaming, NamespaceBoundHoldsUnderIdFlood) {
  // The flood maximizes |accepted|; names must still fit in N+t-1.
  for (int t = 1; t <= 5; ++t) {
    const int n = 3 * t + 1;
    ScenarioConfig config;
    config.params = {.n = n, .t = t};
    config.adversary = "idflood";
    config.seed = static_cast<std::uint64_t>(t);
    const ScenarioResult result = run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << "t=" << t << ": " << result.report.detail;
    EXPECT_LE(result.report.max_name, n + t - 1) << "t=" << t;
  }
}

TEST(OpRenaming, InvalidVotesAreAllRejected) {
  ScenarioConfig config;
  config.params = {.n = 7, .t = 2};
  config.adversary = "invalid";
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  // Every decodable-but-invalid vote must have been rejected and counted:
  // 2 faulty senders x 5 correct receivers x 6 voting rounds, minus the
  // few sends where the adversary used a wrong message type entirely
  // (those are not votes, so they are skipped rather than counted).
  const int voting_rounds = default_approximation_iterations(2);
  EXPECT_GE(result.total_rejected, 2 * 4 * voting_rounds);
  EXPECT_LE(result.total_rejected, 2 * 5 * voting_rounds);
}

TEST(OpRenaming, InvalidVotesRunMatchesMuteRun) {
  // Validation must make the malformed-vote adversary observationally
  // identical to one that participates in id selection and then goes
  // silent ("mute") — the selection phases are identical, and every
  // voting-phase message is rejected.
  ScenarioConfig invalid;
  invalid.params = {.n = 10, .t = 3};
  invalid.adversary = "invalid";
  invalid.seed = 5;
  ScenarioConfig mute = invalid;
  mute.adversary = "mute";
  const ScenarioResult a = run_scenario(invalid);
  const ScenarioResult b = run_scenario(mute);
  ASSERT_EQ(a.named.size(), b.named.size());
  for (std::size_t i = 0; i < a.named.size(); ++i) {
    EXPECT_EQ(a.named[i].new_name, b.named[i].new_name) << "position " << i;
  }
}

TEST(OpRenaming, RanksStayDeltaSeparatedEveryRound) {
  // Corollary IV.6, observed directly: at every correct process, in every
  // voting round, ranks of any two correct ids stay >= delta apart.
  ScenarioConfig config;
  config.params = {.n = 10, .t = 3};
  config.adversary = "split";
  config.seed = 11;
  const Rational d = delta(config.params);
  bool checked = false;
  obs::RoundProbe probe([&](sim::Round round, const sim::Network& net) {
    if (round <= 4) return;
    for (sim::ProcessIndex i = 0; i < net.size(); ++i) {
      if (net.is_byzantine(i)) continue;
      const auto& op = dynamic_cast<const OpRenamingProcess&>(net.behavior(i));
      const Rational* previous = nullptr;
      for (const sim::Id id : op.timely()) {
        const auto it = op.ranks().find(id);
        ASSERT_NE(it, op.ranks().end());
        if (previous != nullptr) {
          EXPECT_GE(it->second - *previous, d) << "round " << round;
          checked = true;
        }
        previous = &it->second;
      }
    }
  });
  config.observers.push_back(&probe);
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  EXPECT_TRUE(checked);
}

TEST(OpRenaming, ConvergenceReachesDecisionMargin) {
  // Lemma IV.9: after all voting rounds the spread of each timely id's
  // rank across correct processes is < (delta-1)/2.
  ScenarioConfig config;
  config.params = {.n = 13, .t = 4};
  config.adversary = "split";
  config.seed = 3;
  const Rational margin =
      (delta(config.params) - Rational(1)) / Rational(2);
  const int last_round = expected_steps(Algorithm::kOpRenaming, config.params);
  bool checked = false;
  obs::RoundProbe probe([&](sim::Round round, const sim::Network& net) {
    if (round != last_round) return;
    std::map<sim::Id, std::pair<Rational, Rational>> extremes;  // id -> (min, max)
    for (sim::ProcessIndex i = 0; i < net.size(); ++i) {
      if (net.is_byzantine(i)) continue;
      const auto& op = dynamic_cast<const OpRenamingProcess&>(net.behavior(i));
      for (const auto& [id, rank] : op.ranks()) {
        const auto it = extremes.find(id);
        if (it == extremes.end()) {
          extremes.emplace(id, std::make_pair(rank, rank));
        } else {
          it->second.first = std::min(it->second.first, rank);
          it->second.second = std::max(it->second.second, rank);
        }
      }
    }
    for (const auto& [id, range] : extremes) {
      EXPECT_LT(range.second - range.first, margin) << "id " << id;
      checked = true;
    }
  });
  config.observers.push_back(&probe);
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  EXPECT_TRUE(checked);
}

TEST(OpRenaming, FewerActualFaultsThanBudget) {
  ScenarioConfig config;
  config.params = {.n = 10, .t = 3};
  config.actual_faults = 1;
  config.adversary = "skew";
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
}

TEST(OpRenaming, AdjacentNumericIdsStayOrdered) {
  // Order preservation with deliberately adjacent original ids.
  ScenarioConfig config;
  config.params = {.n = 7, .t = 2};
  config.correct_ids = {100, 101, 102, 103, 104};
  config.adversary = "split";
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
}

TEST(OpRenaming, ConstantTimeModeRunsEightSteps) {
  // Section V: t^2 + 2t < N allows 4 voting iterations (8 steps total)
  // and a strong namespace of exactly N.
  ScenarioConfig config;
  config.params = {.n = 16, .t = 3};  // 3^2 + 6 = 15 < 16
  config.algorithm = Algorithm::kOpRenamingConstantTime;
  config.adversary = "idflood";
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  EXPECT_EQ(result.run.rounds, 8);
  EXPECT_LE(result.report.max_name, 16);
}

TEST(OpRenaming, ConstantTimeStrongNamespaceAcrossAdversaries) {
  for (const char* adversary : {"silent", "idflood", "split", "skew", "suppress", "random"}) {
    ScenarioConfig config;
    config.params = {.n = 24, .t = 4};  // 4^2 + 8 = 24 == n? needs n > 24
    config.params.n = 25;
    config.algorithm = Algorithm::kOpRenamingConstantTime;
    config.adversary = adversary;
    config.seed = 17;
    const ScenarioResult result = run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << adversary << ": " << result.report.detail;
    EXPECT_LE(result.report.max_name, 25) << adversary;
  }
}

}  // namespace
}  // namespace byzrename::core
