#include "adversary/adversary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "adversary/strategies/strategies.h"
#include "core/harness.h"
#include "core/params.h"
#include "core/rank_approx.h"
#include "sim/network.h"

namespace byzrename::adversary {
namespace {

AdversaryEnv make_env(int n, int t) {
  AdversaryEnv env;
  env.params = {.n = n, .t = t};
  const int correct = n - t;
  for (int i = 0; i < correct; ++i) env.correct.emplace_back(i, 100 + i);
  for (int i = correct; i < n; ++i) {
    env.byz_indices.push_back(i);
    env.byz_ids.push_back(1000 + i);
  }
  env.seed = 9;
  return env;
}

TEST(Registry, KnowsAllStrategies) {
  const auto names = adversary_names();
  EXPECT_EQ(names.size(), 13u);
  for (const char* expected :
       {"silent", "mute", "crash", "random", "chaos", "idflood", "asymflood", "split", "skew",
        "invalid", "suppress", "hybrid", "orderbreak"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
}

TEST(Registry, ThrowsOnUnknownName) {
  EXPECT_THROW((void)find_adversary("nope"), std::out_of_range);
}

TEST(Registry, EveryFactoryProducesOneBehaviorPerFault) {
  const AdversaryEnv env = make_env(10, 3);
  for (const std::string& name : adversary_names()) {
    const auto team = find_adversary(name)(env);
    EXPECT_EQ(team.size(), 3u) << name;
    for (const auto& behavior : team) EXPECT_NE(behavior, nullptr) << name;
  }
}

TEST(Registry, FactoriesCoverEveryAlgorithm) {
  // No strategy may crash when instantiated for any protocol.
  using core::Algorithm;
  for (const Algorithm algorithm :
       {Algorithm::kOpRenaming, Algorithm::kOpRenamingConstantTime, Algorithm::kFastRenaming,
        Algorithm::kCrashRenaming, Algorithm::kBitRenaming, Algorithm::kScalarAA}) {
    AdversaryEnv env = make_env(26, 3);  // large enough for the fast regime
    env.algorithm = algorithm;
    for (const std::string& name : adversary_names()) {
      EXPECT_NO_THROW((void)find_adversary(name)(env))
          << name << " for " << core::to_string(algorithm);
    }
  }
}

TEST(Silent, NeverSends) {
  auto behavior = make_silent();
  sim::Outbox out(/*targeted_allowed=*/true);
  for (sim::Round r = 1; r <= 10; ++r) behavior->on_send(r, out);
  EXPECT_TRUE(out.entries().empty());
  EXPECT_TRUE(behavior->done());
  EXPECT_FALSE(behavior->decision().has_value());
}

TEST(IdFlood, PlansDistinctFakeIds) {
  const AdversaryEnv env = make_env(10, 3);
  const auto team = find_adversary("idflood")(env);
  // The attack's effect is covered by integration tests; here just check
  // the step-1 sends are well-formed per-destination messages.
  sim::Outbox out(/*targeted_allowed=*/true);
  team[0]->on_send(1, out);
  for (const auto& entry : out.entries()) {
    ASSERT_TRUE(entry.dest.has_value());
    const auto* msg = std::get_if<sim::IdMsg>(&*entry.payload);
    ASSERT_NE(msg, nullptr);
    // Fake ids never collide with real ones.
    for (const auto& [index, id] : env.correct) EXPECT_NE(msg->id, id);
    for (const sim::Id id : env.byz_ids) EXPECT_NE(msg->id, id);
  }
}

// End-to-end: every adversary against every renaming algorithm it can
// legally attack must leave the algorithm's guarantees intact. This is
// the "no strategy beats the protocol" umbrella.
/// Wraps a correct process and keeps every delivery it receives, per
/// round. Holding the refs keeps each payload object alive, so pointer
/// identity stays meaningful for the whole run.
class DeliveryRecorder final : public sim::ProcessBehavior {
 public:
  explicit DeliveryRecorder(std::unique_ptr<sim::ProcessBehavior> inner)
      : inner_(std::move(inner)) {}

  void on_send(sim::Round round, sim::Outbox& out) override { inner_->on_send(round, out); }
  void on_receive(sim::Round round, const sim::Inbox& inbox) override {
    seen[round].insert(seen[round].end(), inbox.begin(), inbox.end());
    inner_->on_receive(round, inbox);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::optional<sim::Name> decision() const override { return inner_->decision(); }

  std::map<sim::Round, sim::Inbox> seen;

 private:
  std::unique_ptr<sim::ProcessBehavior> inner_;
};

/// A delivered vote as exact ranks, whichever entries sat on the grid.
core::RankMap vote_values(const sim::Payload& payload) {
  core::RankMap out;
  std::get<sim::RanksMsg>(payload).for_each_value(
      [&out](sim::Id id, const numeric::Rational& rank) { out.emplace(id, rank); });
  return out;
}

/// The face one faulty sender gave each correct receiver in one round,
/// in the order of env.correct.
using Faces = std::vector<sim::PayloadRef>;

/// Runs Alg. 1 at n = 16 against an equivocating two-face strategy.
/// In every voting round, all deliveries from one faulty sender must
/// alias exactly two payload objects: each face is built once and
/// shared by its targets, never copied per target. `check` then pins
/// what the faces say.
void expect_two_shared_faces(const std::string& adversary,
                             const std::function<void(const AdversaryEnv&, const Faces&)>& check) {
  constexpr int kN = 16;
  constexpr int kT = 5;
  const AdversaryEnv env = make_env(kN, kT);
  std::vector<std::unique_ptr<sim::ProcessBehavior>> behaviors;
  std::vector<DeliveryRecorder*> recorders;
  for (const auto& [index, id] : env.correct) {
    auto recorder = std::make_unique<DeliveryRecorder>(
        core::make_correct_behavior(env.algorithm, env.params, id, env.options));
    recorders.push_back(recorder.get());
    behaviors.push_back(std::move(recorder));
  }
  for (auto& behavior : find_adversary(adversary)(env)) behaviors.push_back(std::move(behavior));
  std::vector<bool> byzantine(kN, false);
  for (const sim::ProcessIndex index : env.byz_indices) {
    byzantine[static_cast<std::size_t>(index)] = true;
  }
  sim::Network network(std::move(behaviors), std::move(byzantine), sim::Rng(7));
  const sim::Round last = 4 + core::default_approximation_iterations(kT);
  for (sim::Round round = 1; round <= last; ++round) network.run_round(round);

  for (const sim::ProcessIndex sender : env.byz_indices) {
    for (sim::Round round = 5; round <= last; ++round) {
      SCOPED_TRACE(adversary + " sender " + std::to_string(sender) + " round " +
                   std::to_string(round));
      Faces faces;
      std::set<const sim::Payload*> objects;
      for (std::size_t c = 0; c < recorders.size(); ++c) {
        const sim::LinkIndex link = network.link_of(env.correct[c].first, sender);
        for (const sim::Delivery& d : recorders[c]->seen[round]) {
          if (d.link != link) continue;
          faces.push_back(d.payload);
          objects.insert(&*d.payload);
        }
      }
      ASSERT_EQ(faces.size(), env.correct.size());
      EXPECT_EQ(objects.size(), 2u);
      check(env, faces);
    }
  }
}

TEST(VoteSharing, SplitSendsTwoSharedFacesPerRound) {
  // Half the receivers get every gap squeezed to delta, the rest 2 delta.
  expect_two_shared_faces("split", [](const AdversaryEnv& env, const Faces& faces) {
    const numeric::Rational delta = core::delta(env.params);
    const std::size_t half = faces.size() / 2;
    for (std::size_t c = 0; c < faces.size(); ++c) {
      std::int64_t position = 0;
      for (const auto& [id, rank] : vote_values(*faces[c])) {
        ++position;
        EXPECT_EQ(rank, numeric::Rational(c < half ? position : 2 * position) * delta);
      }
    }
  });
}

TEST(VoteSharing, HybridSendsTwoSharedFacesPerRound) {
  // The disfavored half gets the low view raised by F * delta, F being
  // the number of asymmetric fakes; the favored half gets the low view.
  expect_two_shared_faces("hybrid", [](const AdversaryEnv& env, const Faces& faces) {
    const auto fakes =
        static_cast<std::int64_t>(detail::make_asym_selection_plan(env)->fake_ids.size());
    ASSERT_GT(fakes, 0);
    const numeric::Rational offset = numeric::Rational(fakes) * core::delta(env.params);
    const core::RankMap high = vote_values(*faces.front());
    const core::RankMap low = vote_values(*faces.back());
    ASSERT_EQ(high.size(), low.size());
    for (const auto& [id, rank] : low) EXPECT_EQ(high.at(id), rank + offset) << id;
  });
}

struct AttackCase {
  core::Algorithm algorithm;
  int n;
  int t;
};

class AdversaryVsAlgorithm
    : public ::testing::TestWithParam<std::tuple<AttackCase, std::string>> {};

TEST_P(AdversaryVsAlgorithm, GuaranteesHold) {
  const auto& [c, adversary] = GetParam();
  core::ScenarioConfig config;
  config.params = {.n = c.n, .t = c.t};
  config.algorithm = c.algorithm;
  config.adversary = adversary;
  config.seed = 1234;
  const core::ScenarioResult result = core::run_scenario(config);
  EXPECT_TRUE(result.report.validity) << result.report.detail;
  EXPECT_TRUE(result.report.termination) << result.report.detail;
  EXPECT_TRUE(result.report.uniqueness) << result.report.detail;
  if (c.algorithm != core::Algorithm::kBitRenaming) {
    EXPECT_TRUE(result.report.order_preservation) << result.report.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpRenaming, AdversaryVsAlgorithm,
    ::testing::Combine(::testing::Values(AttackCase{core::Algorithm::kOpRenaming, 10, 3},
                                         AttackCase{core::Algorithm::kOpRenaming, 13, 4}),
                       ::testing::Values("silent", "mute", "crash", "random", "idflood", "split",
                                         "skew", "invalid", "suppress", "hybrid")));

INSTANTIATE_TEST_SUITE_P(
    ConstantTime, AdversaryVsAlgorithm,
    ::testing::Combine(::testing::Values(AttackCase{core::Algorithm::kOpRenamingConstantTime, 16, 3}),
                       ::testing::Values("silent", "crash", "random", "idflood", "split", "skew",
                                         "invalid", "suppress")));

INSTANTIATE_TEST_SUITE_P(
    FastRenaming, AdversaryVsAlgorithm,
    ::testing::Combine(::testing::Values(AttackCase{core::Algorithm::kFastRenaming, 11, 2}),
                       ::testing::Values("silent", "crash", "random", "idflood", "invalid",
                                         "suppress")));

}  // namespace
}  // namespace byzrename::adversary
