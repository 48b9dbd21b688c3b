#include "core/fast_renaming.h"

#include <gtest/gtest.h>

#include <map>

#include "core/harness.h"
#include "obs/telemetry.h"

namespace byzrename::core {
namespace {

TEST(FastRenaming, RejectsInsufficientResilience) {
  // N > 2t^2 + t.
  EXPECT_THROW(FastRenamingProcess({.n = 3, .t = 1}, 1), std::invalid_argument);
  EXPECT_NO_THROW(FastRenamingProcess({.n = 4, .t = 1}, 1));
  EXPECT_THROW(FastRenamingProcess({.n = 10, .t = 2}, 1), std::invalid_argument);
  EXPECT_NO_THROW(FastRenamingProcess({.n = 11, .t = 2}, 1));
  EXPECT_THROW(FastRenamingProcess({.n = 21, .t = 3}, 1), std::invalid_argument);
  EXPECT_NO_THROW(FastRenamingProcess({.n = 22, .t = 3}, 1));
}

TEST(FastRenaming, CompletesInExactlyTwoRounds) {
  ScenarioConfig config;
  config.params = {.n = 11, .t = 2};
  config.algorithm = Algorithm::kFastRenaming;
  config.adversary = "silent";
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  EXPECT_EQ(result.run.rounds, 2);
}

TEST(FastRenaming, NoFaultsGivesUniformSpacing) {
  // With every process correct, every counter is N >= N-t, so names are
  // (N-t), 2(N-t), ... in id order.
  ScenarioConfig config;
  config.params = {.n = 6, .t = 1};
  config.algorithm = Algorithm::kFastRenaming;
  config.actual_faults = 0;
  const ScenarioResult result = run_scenario(config);
  ASSERT_TRUE(result.report.all_ok()) << result.report.detail;
  for (std::size_t i = 0; i < result.named.size(); ++i) {
    EXPECT_EQ(result.named[i].new_name, static_cast<sim::Name>((i + 1) * (6 - 1)));
  }
}

TEST(FastRenaming, NamespaceWithinNSquared) {
  for (const char* adversary : {"silent", "idflood", "suppress", "random", "invalid", "crash"}) {
    ScenarioConfig config;
    config.params = {.n = 11, .t = 2};
    config.algorithm = Algorithm::kFastRenaming;
    config.adversary = adversary;
    config.seed = 23;
    const ScenarioResult result = run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << adversary << ": " << result.report.detail;
    EXPECT_LE(result.report.max_name, 11 * 11) << adversary;
  }
}

TEST(FastRenaming, LemmaVI2MinimumGapBetweenCorrectNames) {
  // newid[id'] >= newid[id] + (N-t) for correct id < id', at every
  // correct process (Lemma VI.2).
  ScenarioConfig config;
  config.params = {.n = 11, .t = 2};
  config.algorithm = Algorithm::kFastRenaming;
  config.adversary = "suppress";
  config.seed = 7;
  std::vector<std::map<sim::Id, sim::Name>> all_newids;
  std::vector<sim::Id> correct_ids;
  obs::RoundProbe probe([&](sim::Round round, const sim::Network& net) {
    if (round != 2) return;
    for (sim::ProcessIndex i = 0; i < net.size(); ++i) {
      if (net.is_byzantine(i)) continue;
      const auto& fast = dynamic_cast<const FastRenamingProcess&>(net.behavior(i));
      all_newids.push_back(fast.newid());
      correct_ids.push_back(fast.my_id());
    }
  });
  config.observers.push_back(&probe);
  const ScenarioResult result = run_scenario(config);
  ASSERT_TRUE(result.report.all_ok()) << result.report.detail;
  std::sort(correct_ids.begin(), correct_ids.end());
  for (const auto& newid : all_newids) {
    for (std::size_t i = 1; i < correct_ids.size(); ++i) {
      const auto lo = newid.find(correct_ids[i - 1]);
      const auto hi = newid.find(correct_ids[i]);
      ASSERT_NE(lo, newid.end());
      ASSERT_NE(hi, newid.end());
      EXPECT_GE(hi->second - lo->second, 11 - 2);
    }
  }
}

TEST(FastRenaming, LemmaVI1DiscrepancyBound) {
  // The estimates of a correct id's name across correct processes differ
  // by at most 2t^2 (Lemma VI.1).
  ScenarioConfig config;
  config.params = {.n = 11, .t = 2};
  config.algorithm = Algorithm::kFastRenaming;
  config.adversary = "suppress";
  config.seed = 13;
  std::vector<std::map<sim::Id, sim::Name>> all_newids;
  std::set<sim::Id> correct_ids;
  obs::RoundProbe probe([&](sim::Round round, const sim::Network& net) {
    if (round != 2) return;
    for (sim::ProcessIndex i = 0; i < net.size(); ++i) {
      if (net.is_byzantine(i)) continue;
      const auto& fast = dynamic_cast<const FastRenamingProcess&>(net.behavior(i));
      all_newids.push_back(fast.newid());
      correct_ids.insert(fast.my_id());
    }
  });
  config.observers.push_back(&probe);
  (void)run_scenario(config);
  ASSERT_FALSE(all_newids.empty());
  for (const sim::Id id : correct_ids) {
    sim::Name lo = std::numeric_limits<sim::Name>::max();
    sim::Name hi = std::numeric_limits<sim::Name>::min();
    for (const auto& newid : all_newids) {
      const auto it = newid.find(id);
      ASSERT_NE(it, newid.end());
      lo = std::min(lo, it->second);
      hi = std::max(hi, it->second);
    }
    EXPECT_LE(hi - lo, 2 * 2 * 2) << "id " << id;  // 2t^2, t = 2
  }
}

TEST(FastRenaming, InvalidEchoesAreRejectedAndCounted) {
  ScenarioConfig config;
  config.params = {.n = 11, .t = 2};
  config.algorithm = Algorithm::kFastRenaming;
  config.adversary = "invalid";
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  // 2 faulty senders x 9 correct receivers, one bad MultiEcho each.
  EXPECT_EQ(result.total_rejected, 2 * 9);
}

TEST(FastRenaming, EchoFromSilentLinkIsRejected) {
  // A MultiEcho from a process that never announced an id in step 1 must
  // fail isValid (linkid == bottom). The silent adversary has no echoes,
  // so exercise it directly at the unit level.
  const sim::SystemParams params{.n = 4, .t = 1};
  FastRenamingProcess p(params, 50);
  // Step 1: hear 3 ids (links 0..2); link 3 stays silent.
  sim::Inbox step1;
  step1.push_back({0, sim::IdMsg{50}});
  step1.push_back({1, sim::IdMsg{60}});
  step1.push_back({2, sim::IdMsg{70}});
  p.on_receive(1, step1);
  // Step 2: valid echoes from links 0-2, plus one from the silent link 3.
  sim::Inbox step2;
  for (sim::LinkIndex link = 0; link < 3; ++link) {
    step2.push_back({link, sim::MultiEchoMsg{{50, 60, 70}}});
  }
  step2.push_back({3, sim::MultiEchoMsg{{50, 60, 70}}});
  p.on_receive(2, step2);
  EXPECT_EQ(p.rejected_echoes(), 1);
  ASSERT_TRUE(p.decision().has_value());
  // Counters clamp at N-t = 3: names 3, 6, 9 for ids 50, 60, 70.
  EXPECT_EQ(*p.decision(), 3);
}

TEST(FastRenaming, RepeatedIdsInOneEchoCountOnce) {
  const sim::SystemParams params{.n = 4, .t = 1};
  FastRenamingProcess p(params, 50);
  sim::Inbox step1;
  for (sim::LinkIndex link = 0; link < 4; ++link) step1.push_back({link, sim::IdMsg{50 + link}});
  p.on_receive(1, step1);
  // One echo repeats id 50 — the counter may rise by one only.
  sim::Inbox step2;
  step2.push_back({0, sim::MultiEchoMsg{{50, 50, 51, 52}}});
  step2.push_back({1, sim::MultiEchoMsg{{50, 51, 52, 53}}});
  step2.push_back({2, sim::MultiEchoMsg{{50, 51, 52, 53}}});
  p.on_receive(2, step2);
  ASSERT_TRUE(p.decision().has_value());
  // counter[50] = 3 (clamped at N-t = 3) -> my name is 3.
  EXPECT_EQ(*p.decision(), 3);
}

TEST(FastRenaming, OversizedEchoIsRejected) {
  const sim::SystemParams params{.n = 4, .t = 1};
  FastRenamingProcess p(params, 50);
  sim::Inbox step1;
  for (sim::LinkIndex link = 0; link < 4; ++link) step1.push_back({link, sim::IdMsg{50 + link}});
  p.on_receive(1, step1);
  sim::MultiEchoMsg oversized;
  for (int i = 0; i < 5; ++i) oversized.ids.push_back(50 + i);  // 5 > N distinct ids
  sim::Inbox step2;
  step2.push_back({0, std::move(oversized)});
  p.on_receive(2, step2);
  EXPECT_EQ(p.rejected_echoes(), 1);
}

TEST(FastRenaming, LowOverlapEchoIsRejected) {
  const sim::SystemParams params{.n = 4, .t = 1};
  FastRenamingProcess p(params, 50);
  sim::Inbox step1;
  for (sim::LinkIndex link = 0; link < 4; ++link) step1.push_back({link, sim::IdMsg{50 + link}});
  p.on_receive(1, step1);
  // Overlap 2 < N-t = 3 with my timely {50,51,52,53}.
  sim::Inbox step2;
  step2.push_back({0, sim::MultiEchoMsg{{50, 51, 99, 98}}});
  p.on_receive(2, step2);
  EXPECT_EQ(p.rejected_echoes(), 1);
}

TEST(FastRenaming, StressLargerSystem) {
  ScenarioConfig config;
  config.params = {.n = 29, .t = 3};  // 2*9+3 = 21 < 29
  config.algorithm = Algorithm::kFastRenaming;
  config.adversary = "idflood";
  const ScenarioResult result = run_scenario(config);
  EXPECT_TRUE(result.report.all_ok()) << result.report.detail;
  EXPECT_LE(result.report.max_name, 29 * 29);
}

}  // namespace
}  // namespace byzrename::core
