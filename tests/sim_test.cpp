#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "sim/codec.h"
#include "sim/network.h"
#include "sim/payload.h"
#include "sim/process.h"
#include "sim/runner.h"

namespace byzrename::sim {
namespace {

/// Records everything it hears; broadcasts its id each round.
class EchoRecorder final : public ProcessBehavior {
 public:
  explicit EchoRecorder(Id id, int rounds) : id_(id), rounds_(rounds) {}

  void on_send(Round, Outbox& out) override { out.broadcast(IdMsg{id_}); }
  void on_receive(Round round, const Inbox& inbox) override {
    last_round_ = round;
    inboxes.push_back(inbox);
  }
  [[nodiscard]] bool done() const override { return last_round_ >= rounds_; }
  [[nodiscard]] std::optional<Name> decision() const override { return id_; }

  std::vector<Inbox> inboxes;

 private:
  Id id_;
  int rounds_;
  Round last_round_ = 0;
};

/// Sends one targeted message to destination 0 each round.
class TargetedSender final : public ProcessBehavior {
 public:
  void on_send(Round, Outbox& out) override { out.send_to(0, IdMsg{99}); }
  void on_receive(Round, const Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }
};

Network make_network(int n, int rounds, std::vector<bool> byzantine = {},
                     bool scramble = true, std::uint64_t seed = 7) {
  std::vector<std::unique_ptr<ProcessBehavior>> behaviors;
  for (int i = 0; i < n; ++i) behaviors.push_back(std::make_unique<EchoRecorder>(i + 1, rounds));
  if (byzantine.empty()) byzantine.assign(static_cast<std::size_t>(n), false);
  return Network(std::move(behaviors), std::move(byzantine), Rng(seed), scramble);
}

TEST(Outbox, CorrectProcessCannotSendTargeted) {
  Outbox out(/*targeted_allowed=*/false);
  EXPECT_THROW(out.send_to(1, IdMsg{1}), std::logic_error);
  out.broadcast(IdMsg{1});
  EXPECT_EQ(out.entries().size(), 1u);
}

TEST(Outbox, ByzantineProcessMaySendTargeted) {
  Outbox out(/*targeted_allowed=*/true);
  out.send_to(2, IdMsg{1});
  ASSERT_EQ(out.entries().size(), 1u);
  EXPECT_EQ(out.entries()[0].dest, 2);
}

TEST(Network, BroadcastReachesEveryProcessIncludingSelf) {
  Network net = make_network(5, 1);
  net.run_round(1);
  for (ProcessIndex i = 0; i < 5; ++i) {
    const auto& recorder = dynamic_cast<const EchoRecorder&>(net.behavior(i));
    ASSERT_EQ(recorder.inboxes.size(), 1u);
    EXPECT_EQ(recorder.inboxes[0].size(), 5u);  // all peers + self-loop
    std::set<Id> ids;
    for (const Delivery& d : recorder.inboxes[0]) {
      ids.insert(std::get<IdMsg>(*d.payload).id);
    }
    EXPECT_EQ(ids.size(), 5u);
  }
}

TEST(Network, LinkLabelsAreDistinctAndStable) {
  Network net = make_network(6, 2);
  net.run_round(1);
  net.run_round(2);
  for (ProcessIndex i = 0; i < 6; ++i) {
    const auto& recorder = dynamic_cast<const EchoRecorder&>(net.behavior(i));
    // Each round delivers over 6 distinct link labels 0..5.
    for (const Inbox& inbox : recorder.inboxes) {
      std::set<LinkIndex> links;
      for (const Delivery& d : inbox) links.insert(d.link);
      EXPECT_EQ(links.size(), 6u);
      EXPECT_EQ(*links.begin(), 0);
      EXPECT_EQ(*links.rbegin(), 5);
    }
    // Stability: the same id arrives on the same link in both rounds.
    std::map<LinkIndex, Id> first_round;
    for (const Delivery& d : recorder.inboxes[0]) {
      first_round[d.link] = std::get<IdMsg>(*d.payload).id;
    }
    for (const Delivery& d : recorder.inboxes[1]) {
      EXPECT_EQ(first_round.at(d.link), std::get<IdMsg>(*d.payload).id);
    }
  }
}

TEST(Network, ScramblingPermutesLinksPerReceiver) {
  // With scrambling on and enough processes, at least one receiver must
  // see some sender on a link different from the sender's index.
  Network net = make_network(8, 1, {}, /*scramble=*/true, /*seed=*/123);
  bool any_permuted = false;
  for (ProcessIndex r = 0; r < 8; ++r) {
    for (ProcessIndex s = 0; s < 8; ++s) {
      if (net.link_of(r, s) != s) any_permuted = true;
    }
  }
  EXPECT_TRUE(any_permuted);
}

TEST(Network, IdentityLinksWhenScramblingDisabled) {
  Network net = make_network(5, 1, {}, /*scramble=*/false);
  for (ProcessIndex r = 0; r < 5; ++r) {
    for (ProcessIndex s = 0; s < 5; ++s) {
      EXPECT_EQ(net.link_of(r, s), s);
    }
  }
}

TEST(Network, TargetedSendReachesOnlyItsDestination) {
  std::vector<std::unique_ptr<ProcessBehavior>> behaviors;
  behaviors.push_back(std::make_unique<EchoRecorder>(1, 1));
  behaviors.push_back(std::make_unique<EchoRecorder>(2, 1));
  behaviors.push_back(std::make_unique<TargetedSender>());
  Network net(std::move(behaviors), {false, false, true}, Rng(1));
  net.run_round(1);
  const auto& p0 = dynamic_cast<const EchoRecorder&>(net.behavior(0));
  const auto& p1 = dynamic_cast<const EchoRecorder&>(net.behavior(1));
  EXPECT_EQ(p0.inboxes[0].size(), 3u);  // two broadcasts (incl. self) + targeted
  EXPECT_EQ(p1.inboxes[0].size(), 2u);
}

TEST(Network, MetricsCountBroadcastAsNMessages) {
  Network net = make_network(4, 2);
  net.run_round(1);
  const Metrics& m = net.metrics();
  ASSERT_EQ(m.per_round().size(), 1u);
  // 4 broadcasts x 4 receivers.
  EXPECT_EQ(m.per_round()[0].messages, 16u);
  EXPECT_EQ(m.per_round()[0].correct_messages, 16u);
  EXPECT_GT(m.per_round()[0].bits, 0u);
  EXPECT_EQ(m.per_round()[0].equivocating_sends, 0u);
  EXPECT_EQ(m.total_messages(), 16u);
}

TEST(Network, MetricsSeparateByzantineTraffic) {
  std::vector<std::unique_ptr<ProcessBehavior>> behaviors;
  behaviors.push_back(std::make_unique<EchoRecorder>(1, 1));
  behaviors.push_back(std::make_unique<TargetedSender>());
  Network net(std::move(behaviors), {false, true}, Rng(1));
  net.run_round(1);
  EXPECT_EQ(net.metrics().per_round()[0].messages, 3u);          // broadcast(2) + targeted(1)
  EXPECT_EQ(net.metrics().per_round()[0].correct_messages, 2u);  // broadcast only
  EXPECT_EQ(net.metrics().per_round()[0].equivocating_sends, 1u);
}

/// Shared tally of what LinkOrderProbe processes observed; restarted
/// probes report into the same tally.
struct LinkOrderTally {
  std::size_t inboxes = 0;
  std::size_t deliveries = 0;
  std::size_t out_of_order = 0;
};

/// Broadcasts three messages a round; a Byzantine probe also targets two
/// receivers. Checks every inbox it is handed for ascending link order.
class LinkOrderProbe final : public ProcessBehavior {
 public:
  LinkOrderProbe(Id id, LinkOrderTally* tally) : id_(id), tally_(tally) {}

  void on_send(Round round, Outbox& out) override {
    for (int k = 0; k < 3; ++k) out.broadcast(EchoMsg{id_ * 10 + k});
    if (out.targeted_allowed()) {
      out.send_to(static_cast<ProcessIndex>(round % 5), ReadyMsg{id_});
      out.send_to(0, ReadyMsg{-id_});
    }
  }
  void on_receive(Round, const Inbox& inbox) override {
    tally_->inboxes += 1;
    tally_->deliveries += inbox.size();
    const bool ordered =
        std::is_sorted(inbox.begin(), inbox.end(),
                       [](const Delivery& a, const Delivery& b) { return a.link < b.link; });
    if (!ordered) tally_->out_of_order += 1;
  }
  [[nodiscard]] bool done() const override { return false; }

 private:
  Id id_;
  LinkOrderTally* tally_;
};

TEST(Network, InboxesArriveInAscendingLinkOrder) {
  // The sim::Inbox contract that IdSelection's one-pass tallies rely on,
  // on the bulk-broadcast path (no plan) and on the per-delivery injector
  // path under every plan family that adds, defers or re-homes traffic.
  constexpr int kN = 7;
  const std::vector<bool> byzantine = {false, true, false, false, true, false, false};
  for (const char* spec : {"", "dup:0.5", "delay:0.5x2", "forge:3", "restart:2@3,scramble",
                           "dup:0.3+delay:0.4x1+forge:2x0.5+restart:3@2"}) {
    LinkOrderTally tally;
    const auto make = [&tally](ProcessIndex i) -> std::unique_ptr<ProcessBehavior> {
      return std::make_unique<LinkOrderProbe>(i + 1, &tally);
    };
    std::vector<std::unique_ptr<ProcessBehavior>> behaviors;
    for (ProcessIndex i = 0; i < kN; ++i) behaviors.push_back(make(i));
    Network net(std::move(behaviors), byzantine, Rng(11));
    const FaultInjector injector(parse_fault_plan(spec), 5);
    if (spec[0] != '\0') {
      net.attach_fault_injector(&injector);
      net.attach_behavior_factory(make);
    }
    for (Round r = 1; r <= 6; ++r) net.run_round(r);
    EXPECT_EQ(tally.inboxes, 6u * kN) << spec;
    // Broadcasts alone give 3 deliveries per link, so each inbox has
    // multi-delivery link runs to keep in order.
    EXPECT_GT(tally.deliveries, 6u * kN * kN * 2) << spec;
    EXPECT_EQ(tally.out_of_order, 0u) << spec;
    if (spec[0] != '\0') {
      const std::size_t injected =
          net.metrics().total_injected_duplicates() + net.metrics().total_injected_delays() +
          net.metrics().total_injected_forgeries() + net.metrics().total_injected_restarts();
      EXPECT_GT(injected, 0u) << spec;
    }
  }
}

TEST(Metrics, RunningTotalsMatchPerRoundSums) {
  Metrics m;
  m.add_round({.messages = 10, .bits = 800, .correct_messages = 7, .correct_bits = 560,
               .equivocating_sends = 2});
  m.add_round({.messages = 4, .bits = 100, .correct_messages = 4, .correct_bits = 100,
               .equivocating_sends = 0});
  m.note_message_bits(96, /*correct_sender=*/false);
  m.note_message_bits(80, /*correct_sender=*/true);

  std::size_t messages = 0, bits = 0, correct_messages = 0, correct_bits = 0, equivocating = 0;
  for (const RoundMetrics& r : m.per_round()) {
    messages += r.messages;
    bits += r.bits;
    correct_messages += r.correct_messages;
    correct_bits += r.correct_bits;
    equivocating += r.equivocating_sends;
  }
  EXPECT_EQ(m.rounds(), 2u);
  EXPECT_EQ(m.total_messages(), messages);
  EXPECT_EQ(m.total_bits(), bits);
  EXPECT_EQ(m.total_correct_messages(), correct_messages);
  EXPECT_EQ(m.total_correct_bits(), correct_bits);
  EXPECT_EQ(m.total_equivocating_sends(), equivocating);
  EXPECT_EQ(m.max_message_bits(), 96u);
  EXPECT_EQ(m.max_correct_message_bits(), 80u);
}

TEST(Metrics, TotalsStayConsistentAfterRealRun) {
  Network net = make_network(5, 3);
  run_to_completion(net, 5);
  const Metrics& m = net.metrics();
  std::size_t messages = 0, bits = 0;
  for (const RoundMetrics& r : m.per_round()) {
    messages += r.messages;
    bits += r.bits;
  }
  EXPECT_EQ(m.total_messages(), messages);
  EXPECT_EQ(m.total_bits(), bits);
}

TEST(Network, RejectsMismatchedConstruction) {
  std::vector<std::unique_ptr<ProcessBehavior>> behaviors;
  behaviors.push_back(std::make_unique<EchoRecorder>(1, 1));
  EXPECT_THROW(Network(std::move(behaviors), {false, true}, Rng(1)), std::invalid_argument);
  std::vector<std::unique_ptr<ProcessBehavior>> empty;
  EXPECT_THROW(Network(std::move(empty), {}, Rng(1)), std::invalid_argument);
}

TEST(Runner, StopsWhenAllCorrectDone) {
  Network net = make_network(3, 2);
  const RunResult result = run_to_completion(net, 10);
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.rounds, 2);
  ASSERT_EQ(result.decisions.size(), 3u);
  EXPECT_EQ(result.decisions[0], 1);
  EXPECT_EQ(result.decisions[2], 3);
}

TEST(Runner, ReportsNonTerminationWhenBudgetExhausted) {
  Network net = make_network(3, 100);
  const RunResult result = run_to_completion(net, 5);
  EXPECT_FALSE(result.terminated);
  EXPECT_EQ(result.rounds, 5);
}

TEST(Runner, ByzantineDecisionsAreSuppressed) {
  std::vector<std::unique_ptr<ProcessBehavior>> behaviors;
  behaviors.push_back(std::make_unique<EchoRecorder>(1, 1));
  behaviors.push_back(std::make_unique<EchoRecorder>(2, 1));
  Network net(std::move(behaviors), {false, true}, Rng(1));
  const RunResult result = run_to_completion(net, 3);
  EXPECT_TRUE(result.decisions[0].has_value());
  EXPECT_FALSE(result.decisions[1].has_value());
}

TEST(Runner, ObserverSeesEveryRound) {
  Network net = make_network(3, 3);
  std::vector<Round> seen;
  const RunResult result = run_to_completion(net, 10, [&seen](Round r, const Network&) {
    seen.push_back(r);
  });
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(seen, (std::vector<Round>{1, 2, 3}));
}

TEST(Payload, WireBitsReflectContentSize) {
  RanksMsg one;
  one.push_exact(1, numeric::Rational(1));
  RanksMsg two = one;
  two.push_exact(2, numeric::Rational(2));
  EXPECT_LT(encoded_bits(IdMsg{1}), encoded_bits(one));
  EXPECT_GT(encoded_bits(two), encoded_bits(one));
  EXPECT_GT(encoded_bits(MultiEchoMsg{{1, 2, 3}}), encoded_bits(MultiEchoMsg{{1, 2}}));
}

TEST(Payload, DescribeNamesEveryAlternative) {
  EXPECT_EQ(describe(IdMsg{7}), "Id(7)");
  EXPECT_EQ(describe(EchoMsg{7}), "Echo(7)");
  EXPECT_EQ(describe(ReadyMsg{7}), "Ready(7)");
  EXPECT_NE(describe(RanksMsg{}).find("Ranks"), std::string::npos);
  EXPECT_NE(describe(MultiEchoMsg{}).find("MultiEcho"), std::string::npos);
  EXPECT_NE(describe(AAValueMsg{numeric::Rational::of(1, 2)}).find("1/2"), std::string::npos);
  EXPECT_NE(describe(WordMsg{1, {2, 3}}).find("Word"), std::string::npos);
}

}  // namespace
}  // namespace byzrename::sim
