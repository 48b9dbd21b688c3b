#include "translate/crash_to_byzantine.h"

#include <gtest/gtest.h>

#include "baselines/crash_renaming.h"
#include "core/harness.h"
#include "sim/codec.h"

namespace byzrename::translate {
namespace {

using core::Algorithm;
using core::ScenarioConfig;
using core::ScenarioResult;

TEST(Translation, NoFaultsRenamesLikeTheInnerProtocol) {
  ScenarioConfig config;
  config.params = {.n = 7, .t = 2};
  config.algorithm = Algorithm::kTranslatedRenaming;
  config.actual_faults = 0;
  const ScenarioResult result = core::run_scenario(config);
  ASSERT_TRUE(result.report.all_ok()) << result.report.detail;
  // Inner [14]-style renaming with identical views: names are 1..m.
  for (std::size_t i = 0; i < result.named.size(); ++i) {
    EXPECT_EQ(result.named[i].new_name, static_cast<sim::Name>(i + 1));
  }
}

TEST(Translation, DoublesTheStepCount) {
  ScenarioConfig config;
  config.params = {.n = 9, .t = 2};
  config.algorithm = Algorithm::kTranslatedRenaming;
  config.adversary = "silent";
  const ScenarioResult translated = core::run_scenario(config);
  EXPECT_TRUE(translated.report.all_ok()) << translated.report.detail;

  ScenarioConfig crash = config;
  crash.algorithm = Algorithm::kCrashRenaming;
  const ScenarioResult native = core::run_scenario(crash);
  EXPECT_EQ(translated.run.rounds, 2 * native.run.rounds);
}

TEST(Translation, MessageComplexityBlowsUpByAFactorOfN) {
  // The echo round re-broadcasts every cast: ~N real messages per
  // simulated message. This measured blowup is the paper's first
  // objection to the translation approach (Section I).
  ScenarioConfig config;
  config.params = {.n = 9, .t = 2};
  config.algorithm = Algorithm::kTranslatedRenaming;
  config.adversary = "silent";
  const ScenarioResult translated = core::run_scenario(config);

  ScenarioConfig crash = config;
  crash.algorithm = Algorithm::kCrashRenaming;
  const ScenarioResult native = core::run_scenario(crash);

  const double blowup = static_cast<double>(translated.run.metrics.total_correct_messages()) /
                        static_cast<double>(native.run.metrics.total_correct_messages());
  EXPECT_GT(blowup, 0.5 * 9);  // at least N/2 in practice
}

TEST(Translation, SurvivesCrashFaults) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScenarioConfig config;
    config.params = {.n = 9, .t = 2};
    config.algorithm = Algorithm::kTranslatedRenaming;
    config.adversary = "crash";
    config.seed = seed;
    const ScenarioResult result = core::run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << "seed " << seed << ": " << result.report.detail;
  }
}

TEST(Translation, SurvivesByzantineLiars) {
  // The whole point of the translation: the inner crash-only protocol,
  // which random Byzantine lies would corrupt directly, stays correct
  // behind the echo filter.
  for (const char* adversary : {"silent", "random"}) {
    ScenarioConfig config;
    config.params = {.n = 9, .t = 2};
    config.algorithm = Algorithm::kTranslatedRenaming;
    config.adversary = adversary;
    config.seed = 3;
    const ScenarioResult result = core::run_scenario(config);
    EXPECT_TRUE(result.report.all_ok()) << adversary << ": " << result.report.detail;
    EXPECT_LE(result.report.max_name, 9);
  }
}

TEST(Translation, EquivocatingCastsNeverSplitDeliveries) {
  // Unit-level: a Byzantine sender casting two versions of its round-r
  // message can get at most one delivered (the other lacks a quorum).
  const sim::SystemParams params{.n = 4, .t = 1};

  /// Inner probe that records what it receives.
  class Probe final : public sim::ProcessBehavior {
   public:
    void on_send(sim::Round, sim::Outbox&) override {}
    void on_receive(sim::Round, const sim::Inbox& inbox) override { received = inbox; }
    [[nodiscard]] bool done() const override { return false; }
    sim::Inbox received;
  };

  auto probe = std::make_unique<Probe>();
  Probe* probe_view = probe.get();
  TranslatedProcess translated(params, std::move(probe), /*inner_steps=*/3);

  const std::vector<std::uint8_t> version_a = sim::encode(sim::IdMsg{111});
  const std::vector<std::uint8_t> version_b = sim::encode(sim::IdMsg{222});

  // Real round 1 (cast): link 2 is the equivocator; we are told version A.
  sim::Inbox cast_round;
  cast_round.push_back({2, sim::WrappedCastMsg{1, version_a}});
  translated.on_receive(1, cast_round);

  // Real round 2 (echo): two links echo version A, two echo version B —
  // neither reaches N-t = 3.
  sim::Inbox echo_round;
  echo_round.push_back({0, sim::WrappedEchoMsg{2, 1, version_a}});
  echo_round.push_back({1, sim::WrappedEchoMsg{2, 1, version_a}});
  echo_round.push_back({2, sim::WrappedEchoMsg{2, 1, version_b}});
  echo_round.push_back({3, sim::WrappedEchoMsg{2, 1, version_b}});
  translated.on_receive(2, echo_round);
  EXPECT_TRUE(probe_view->received.empty());
  EXPECT_EQ(translated.undelivered_casts(), 2);

  // Next simulated round: version A gets a proper quorum -> delivered,
  // attributed to link 2.
  sim::Inbox cast_round_2;
  cast_round_2.push_back({2, sim::WrappedCastMsg{2, version_a}});
  translated.on_receive(3, cast_round_2);
  sim::Inbox echo_round_2;
  for (sim::LinkIndex link = 0; link < 3; ++link) {
    echo_round_2.push_back({link, sim::WrappedEchoMsg{2, 2, version_a}});
  }
  translated.on_receive(4, echo_round_2);
  ASSERT_EQ(probe_view->received.size(), 1u);
  EXPECT_EQ(probe_view->received[0].link, 2);
  EXPECT_EQ(std::get<sim::IdMsg>(*probe_view->received[0].payload).id, 111);
}

TEST(Translation, GarbageBlobsWithQuorumAreDropped) {
  const sim::SystemParams params{.n = 4, .t = 1};
  class Probe final : public sim::ProcessBehavior {
   public:
    void on_send(sim::Round, sim::Outbox&) override {}
    void on_receive(sim::Round, const sim::Inbox& inbox) override { received = inbox; }
    [[nodiscard]] bool done() const override { return false; }
    sim::Inbox received;
  };
  auto probe = std::make_unique<Probe>();
  Probe* probe_view = probe.get();
  TranslatedProcess translated(params, std::move(probe), 2);

  const std::vector<std::uint8_t> garbage{0xFF, 0xFF, 0xFF};
  translated.on_receive(1, {});
  sim::Inbox echo_round;
  for (sim::LinkIndex link = 0; link < 4; ++link) {
    echo_round.push_back({link, sim::WrappedEchoMsg{1, 1, garbage}});
  }
  translated.on_receive(2, echo_round);
  EXPECT_TRUE(probe_view->received.empty());
  EXPECT_EQ(translated.undelivered_casts(), 1);
}

TEST(Translation, OutOfRangeSenderInEchoIsIgnored) {
  const sim::SystemParams params{.n = 4, .t = 1};
  class Probe final : public sim::ProcessBehavior {
   public:
    void on_send(sim::Round, sim::Outbox&) override {}
    void on_receive(sim::Round, const sim::Inbox& inbox) override { received = inbox; }
    [[nodiscard]] bool done() const override { return false; }
    sim::Inbox received;
  };
  auto probe = std::make_unique<Probe>();
  Probe* probe_view = probe.get();
  TranslatedProcess translated(params, std::move(probe), 2);

  const std::vector<std::uint8_t> blob = sim::encode(sim::IdMsg{7});
  translated.on_receive(1, {});
  sim::Inbox echo_round;
  for (sim::LinkIndex link = 0; link < 4; ++link) {
    echo_round.push_back({link, sim::WrappedEchoMsg{/*sender=*/99, 1, blob}});
  }
  translated.on_receive(2, echo_round);
  EXPECT_TRUE(probe_view->received.empty());
}

// ---------------------------------------------------------------------------
// The translation's documented limitation, probed: a Byzantine sender can
// produce *repeated partial* deliveries (omission behaviour, not a clean
// crash) by steering the echo quorum differently every simulated round.
// The full translations of [3]/[13] pay extra machinery (history echoes)
// to close exactly this; ours deliberately does not, because measuring
// the cheap version's cost is bench_t8's point. This test documents that
// the wrapped AA-style protocol survives the omission pattern anyway —
// trimmed averaging tolerates per-round absence.
// ---------------------------------------------------------------------------

namespace {

class OmissionAttacker final : public sim::ProcessBehavior {
 public:
  OmissionAttacker(sim::SystemParams params, sim::Id claimed_id, int correct_count)
      : params_(params), claimed_id_(claimed_id), correct_count_(correct_count) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    const sim::Round sim_round = (round + 1) / 2;
    const bool is_cast_round = round % 2 == 1;
    sim::RanksMsg vote;
    vote.push_exact(claimed_id_, numeric::Rational(1));
    const sim::Payload inner_payload =
        sim_round == 1 ? sim::Payload(sim::IdMsg{claimed_id_}) : sim::Payload(std::move(vote));
    const std::vector<std::uint8_t> blob = sim::encode(inner_payload);
    if (is_cast_round) {
      // Rotate which half hears the cast, round after round.
      const int offset = static_cast<int>(sim_round) % correct_count_;
      for (int c = 0; c < correct_count_ / 2; ++c) {
        out.send_to((offset + c) % correct_count_, sim::WrappedCastMsg{sim_round, blob});
      }
    } else {
      // Echo own cast toward a rotating subset, pushing it just past the
      // quorum there and nowhere else.
      const int offset = static_cast<int>(sim_round) % correct_count_;
      for (int c = 0; c < correct_count_ / 2 + params_.t; ++c) {
        out.send_to((offset + c) % correct_count_,
                    sim::WrappedEchoMsg{/*sender=*/correct_count_, sim_round, blob});
      }
    }
  }
  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }

 private:
  sim::SystemParams params_;
  sim::Id claimed_id_;
  int correct_count_;
};

TEST(Translation, SurvivesRepeatedOmissionSteering) {
  const sim::SystemParams params{.n = 9, .t = 2};
  const int correct_count = params.n - params.t;
  std::vector<std::unique_ptr<sim::ProcessBehavior>> behaviors;
  std::vector<bool> byzantine;
  std::vector<sim::Id> ids;
  for (int i = 0; i < correct_count; ++i) {
    const sim::Id id = 100 + 10 * i;
    ids.push_back(id);
    auto inner = std::make_unique<baselines::CrashRenamingProcess>(params, id);
    const int steps = inner->total_steps();
    behaviors.push_back(
        std::make_unique<TranslatedProcess>(params, std::move(inner), steps));
    byzantine.push_back(false);
  }
  for (int i = 0; i < params.t; ++i) {
    behaviors.push_back(std::make_unique<OmissionAttacker>(params, 500 + i, correct_count));
    byzantine.push_back(true);
  }
  // Authenticated links: scramble off.
  sim::Network net(std::move(behaviors), std::move(byzantine), sim::Rng(2), false);
  const sim::RunResult run = sim::run_to_completion(
      net, TranslatedProcess::real_steps(1 + core::default_approximation_iterations(params.t)));
  ASSERT_TRUE(run.terminated);

  std::vector<core::NamedProcess> named;
  for (int i = 0; i < correct_count; ++i) named.push_back({ids[static_cast<std::size_t>(i)], run.decisions[static_cast<std::size_t>(i)]});
  const core::CheckReport report = core::check_renaming(named, params.n);
  EXPECT_TRUE(report.all_ok()) << report.detail;
}

}  // namespace

}  // namespace
}  // namespace byzrename::translate
