#include <gtest/gtest.h>

#include "baselines/bit_renaming.h"
#include "baselines/consensus_renaming.h"
#include "baselines/crash_renaming.h"
#include "core/harness.h"
#include "obs/telemetry.h"

namespace byzrename::core {
namespace {

TEST(CrashRenaming, NoFaultsGivesSortedRanks) {
  ScenarioConfig config;
  config.params = {.n = 6, .t = 2};
  config.algorithm = Algorithm::kCrashRenaming;
  config.actual_faults = 0;
  const ScenarioResult result = run_scenario(config);
  ASSERT_TRUE(result.report.all_ok()) << result.report.detail;
  for (std::size_t i = 0; i < result.named.size(); ++i) {
    EXPECT_EQ(result.named[i].new_name, static_cast<sim::Name>(i + 1));
  }
}

TEST(CrashRenaming, SurvivesCrashFaults) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ScenarioConfig config;
    config.params = {.n = 9, .t = 3};
    config.algorithm = Algorithm::kCrashRenaming;
    config.adversary = "crash";
    config.seed = seed;
    const ScenarioResult result = run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << "seed " << seed << ": " << result.report.detail;
    EXPECT_LE(result.report.max_name, 9);
  }
}

TEST(CrashRenaming, SilentFaultsAreCrashFaults) {
  ScenarioConfig config;
  config.params = {.n = 7, .t = 2};
  config.algorithm = Algorithm::kCrashRenaming;
  config.adversary = "silent";
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
}

TEST(CrashRenaming, StepCountMatchesOkunStructure) {
  // 1 id-exchange step + 3*ceil(log2 t)+3 voting steps.
  ScenarioConfig config;
  config.params = {.n = 9, .t = 3};
  config.algorithm = Algorithm::kCrashRenaming;
  config.adversary = "crash";
  const ScenarioResult result = run_scenario(config);
  EXPECT_EQ(result.run.rounds, 1 + 3 * 2 + 3);
}

TEST(ConsensusRenaming, StrongOrderPreservingWithoutFaults) {
  ScenarioConfig config;
  config.params = {.n = 9, .t = 2};
  config.algorithm = Algorithm::kConsensusRenaming;
  config.actual_faults = 0;
  const ScenarioResult result = run_scenario(config);
  ASSERT_TRUE(result.report.all_ok()) << result.report.detail;
  EXPECT_LE(result.report.max_name, 9);
  for (std::size_t i = 0; i < result.named.size(); ++i) {
    EXPECT_EQ(result.named[i].new_name, static_cast<sim::Name>(i + 1));
  }
}

TEST(ConsensusRenaming, SurvivesByzantineFaults) {
  for (const char* adversary : {"silent", "random", "crash"}) {
    ScenarioConfig config;
    config.params = {.n = 9, .t = 2};
    config.algorithm = Algorithm::kConsensusRenaming;
    config.adversary = adversary;
    config.seed = 31;
    const ScenarioResult result = run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << adversary << ": " << result.report.detail;
    EXPECT_LE(result.report.max_name, 9) << adversary;
  }
}

TEST(ConsensusRenaming, RoundsAreLinearInT) {
  for (int t = 1; t <= 3; ++t) {
    const int n = 4 * t + 1;
    ScenarioConfig config;
    config.params = {.n = n, .t = t};
    config.algorithm = Algorithm::kConsensusRenaming;
    config.adversary = "silent";
    const ScenarioResult result = run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
    EXPECT_EQ(result.run.rounds, 1 + 2 * (t + 1));
  }
}

TEST(ConsensusRenaming, AgreedClaimsMatchAcrossCorrectProcesses) {
  ScenarioConfig config;
  config.params = {.n = 9, .t = 2};
  config.algorithm = Algorithm::kConsensusRenaming;
  config.adversary = "random";
  config.seed = 77;
  std::vector<std::vector<std::int64_t>> claims;
  obs::RoundProbe probe([&](sim::Round round, const sim::Network& net) {
    if (round != 1 + 2 * (2 + 1)) return;
    for (sim::ProcessIndex i = 0; i < net.size(); ++i) {
      if (net.is_byzantine(i)) continue;
      claims.push_back(dynamic_cast<const baselines::ConsensusRenamingProcess&>(net.behavior(i))
                           .agreed_claims());
    }
  });
  config.observers.push_back(&probe);
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  ASSERT_GE(claims.size(), 2u);
  for (std::size_t i = 1; i < claims.size(); ++i) {
    EXPECT_EQ(claims[i], claims[0]) << "claim vectors diverged";
  }
}

TEST(BitRenaming, NoFaultsIsCollisionFree) {
  ScenarioConfig config;
  config.params = {.n = 8, .t = 2};
  config.algorithm = Algorithm::kBitRenaming;
  config.actual_faults = 0;
  const ScenarioResult result = run_scenario(config);
  // Non-order-preserving by design: only check the other three properties.
  EXPECT_TRUE(result.report.validity) << result.report.detail;
  EXPECT_TRUE(result.report.termination) << result.report.detail;
  EXPECT_TRUE(result.report.uniqueness) << result.report.detail;
  EXPECT_LE(result.report.max_name, 2 * 8);
}

TEST(BitRenaming, UniquenessUnderAdversaries) {
  for (const char* adversary : {"silent", "crash", "random", "idflood"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioConfig config;
      config.params = {.n = 10, .t = 3};
      config.algorithm = Algorithm::kBitRenaming;
      config.adversary = adversary;
      config.seed = seed;
      const ScenarioResult result = run_scenario(config);
      EXPECT_TRUE(result.report.termination) << adversary << "/" << seed;
      EXPECT_TRUE(result.report.uniqueness)
          << adversary << "/" << seed << ": " << result.report.detail;
      EXPECT_TRUE(result.report.validity)
          << adversary << "/" << seed << ": " << result.report.detail;
    }
  }
}

TEST(BitRenaming, StepCountIsLogarithmic) {
  ScenarioConfig config;
  config.params = {.n = 8, .t = 2};
  config.algorithm = Algorithm::kBitRenaming;
  config.adversary = "silent";
  const ScenarioResult result = run_scenario(config);
  EXPECT_EQ(result.run.rounds, 4 + 2 * 4);  // ceil(log2 16) = 4 phases
}

}  // namespace
}  // namespace byzrename::core
