#include "aa/byzantine_aa.h"

#include <gtest/gtest.h>

#include <memory>

#include "aa/crash_aa.h"
#include "adversary/adversary.h"
#include "sim/network.h"
#include "sim/runner.h"

namespace byzrename::aa {
namespace {

using numeric::Rational;

struct AARun {
  std::vector<Rational> values;          ///< final values of correct processes
  std::vector<Rational> initial;        ///< initial values of correct processes
  std::vector<std::vector<Rational>> per_round;  ///< correct values after each round
};

/// Byzantine AA network with `faulty` equivocating processes that send
/// value `low` to the first half and `high` to the rest.
class EquivocatorBehavior final : public sim::ProcessBehavior {
 public:
  EquivocatorBehavior(int n, Rational low, Rational high)
      : n_(n), low_(std::move(low)), high_(std::move(high)) {}
  void on_send(sim::Round, sim::Outbox& out) override {
    for (int dest = 0; dest < n_; ++dest) {
      out.send_to(dest, sim::AAValueMsg{dest < n_ / 2 ? low_ : high_});
    }
  }
  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }

 private:
  int n_;
  Rational low_;
  Rational high_;
};

AARun run_byzantine_aa(const sim::SystemParams& params, int faulty, int rounds,
                       const std::vector<Rational>& initial) {
  std::vector<std::unique_ptr<sim::ProcessBehavior>> behaviors;
  std::vector<bool> byzantine;
  const int correct = params.n - faulty;
  for (int i = 0; i < correct; ++i) {
    behaviors.push_back(std::make_unique<ByzantineAAProcess>(params, initial[static_cast<std::size_t>(i)], rounds));
    byzantine.push_back(false);
  }
  for (int i = 0; i < faulty; ++i) {
    behaviors.push_back(
        std::make_unique<EquivocatorBehavior>(params.n, Rational(-1'000'000), Rational(1'000'000)));
    byzantine.push_back(true);
  }
  sim::Network net(std::move(behaviors), std::move(byzantine), sim::Rng(5));
  AARun run;
  run.initial = initial;
  sim::run_to_completion(net, rounds, [&](sim::Round, const sim::Network& n) {
    std::vector<Rational> snapshot;
    for (sim::ProcessIndex i = 0; i < correct; ++i) {
      snapshot.push_back(dynamic_cast<const ByzantineAAProcess&>(n.behavior(i)).value());
    }
    run.per_round.push_back(snapshot);
  });
  for (sim::ProcessIndex i = 0; i < correct; ++i) {
    run.values.push_back(dynamic_cast<const ByzantineAAProcess&>(net.behavior(i)).value());
  }
  return run;
}

Rational spread(const std::vector<Rational>& values) {
  Rational lo = values.front();
  Rational hi = values.front();
  for (const Rational& v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi - lo;
}

TEST(ByzantineAA, RejectsInsufficientResilience) {
  EXPECT_THROW(ByzantineAAProcess({.n = 6, .t = 2}, Rational(0), 1), std::invalid_argument);
  EXPECT_NO_THROW(ByzantineAAProcess({.n = 7, .t = 2}, Rational(0), 1));
}

TEST(ByzantineAA, UnanimousInputIsFixpoint) {
  const sim::SystemParams params{.n = 7, .t = 2};
  const std::vector<Rational> initial(5, Rational(42));
  const AARun run = run_byzantine_aa(params, 2, 3, initial);
  for (const Rational& v : run.values) EXPECT_EQ(v, Rational(42));
}

TEST(ByzantineAA, OutputsStayInCorrectRange) {
  const sim::SystemParams params{.n = 7, .t = 2};
  const std::vector<Rational> initial{Rational(0), Rational(5), Rational(10), Rational(15),
                                      Rational(20)};
  const AARun run = run_byzantine_aa(params, 2, 5, initial);
  for (const Rational& v : run.values) {
    EXPECT_GE(v, Rational(0));
    EXPECT_LE(v, Rational(20));
  }
}

TEST(ByzantineAA, ContractsByAtLeastSigmaEachRound) {
  const sim::SystemParams params{.n = 13, .t = 3};
  const int sigma = core::sigma_t(params);  // floor(7/3)+1 = 3
  std::vector<Rational> initial;
  for (int i = 0; i < 10; ++i) initial.emplace_back(100 * i);
  const AARun run = run_byzantine_aa(params, 3, 6, initial);
  Rational previous = spread(initial);
  for (const auto& snapshot : run.per_round) {
    const Rational current = spread(snapshot);
    EXPECT_LE(current * Rational(sigma), previous)
        << "round spread " << current << " vs previous " << previous;
    previous = current;
  }
}

TEST(ByzantineAA, ConvergesGeometrically) {
  const sim::SystemParams params{.n = 10, .t = 3};
  std::vector<Rational> initial;
  for (int i = 0; i < 7; ++i) initial.emplace_back(i);
  const AARun run = run_byzantine_aa(params, 3, 16, initial);
  // Contraction rate here is 2 per round: spread 6 / 2^16 < 1/1000.
  EXPECT_LT(spread(run.values), Rational::of(1, 1000));
}

TEST(ByzantineAA, OversizedValuesAreIgnored) {
  // A value whose encoding exceeds the budget must not poison the round.
  // c + 2^-d encodes in 2d + 6 bits for c = 5 and 2d + 7 for c = 8.
  const int d = 32765;
  const auto sized = [d](std::int64_t c) {
    const numeric::BigInt den = numeric::BigInt(1) << static_cast<std::size_t>(d);
    return Rational(numeric::BigInt(c) * den + numeric::BigInt(1), den);
  };
  ASSERT_EQ(sized(5).encoded_bits(), ByzantineAAProcess::kMaxValueBits);
  ASSERT_EQ(sized(8).encoded_bits(), ByzantineAAProcess::kMaxValueBits + 1);
  const sim::SystemParams params{.n = 4, .t = 1};
  for (const std::int64_t c : {5, 8}) {
    ByzantineAAProcess p(params, Rational(0), 1);
    sim::Inbox inbox;
    inbox.push_back({0, sim::AAValueMsg{Rational(10)}});
    inbox.push_back({1, sim::AAValueMsg{Rational(10)}});
    inbox.push_back({2, sim::AAValueMsg{sized(c)}});
    p.on_receive(1, inbox);
    // Admitted: sorted {0, x, 10, 10} averages positions 1 and 2. Ignored:
    // the own value 0 pads the ballot to {0, 0, 10, 10}, which averages 5.
    EXPECT_EQ(p.value(), c == 5 ? (sized(c) + Rational(10)) / Rational(2) : Rational(5));
  }
}

TEST(ByzantineAA, DuplicateLinkValuesCountOnce) {
  const sim::SystemParams params{.n = 4, .t = 1};
  ByzantineAAProcess p(params, Rational(0), 1);
  sim::Inbox inbox;
  // Link 0 spams three values; only the first counts, rest of ballot is
  // padded with the local value 0.
  inbox.push_back({0, sim::AAValueMsg{Rational(100)}});
  inbox.push_back({0, sim::AAValueMsg{Rational(200)}});
  inbox.push_back({0, sim::AAValueMsg{Rational(300)}});
  p.on_receive(1, inbox);
  // Ballot [100, 0, 0, 0] sorted [0,0,0,100], trim 1 -> [0,0,0]... wait
  // trim removes 1 low and 1 high: [0, 0]; select_1 = both; avg 0.
  EXPECT_EQ(p.value(), Rational(0));
}

TEST(CrashAA, MeanConvergesWithoutFaults) {
  const sim::SystemParams params{.n = 5, .t = 0};
  std::vector<std::unique_ptr<sim::ProcessBehavior>> behaviors;
  std::vector<bool> byzantine(5, false);
  for (int i = 0; i < 5; ++i) {
    behaviors.push_back(std::make_unique<CrashAAProcess>(params, Rational(i * 10), 1));
  }
  sim::Network net(std::move(behaviors), std::move(byzantine), sim::Rng(3));
  sim::run_to_completion(net, 1);
  for (sim::ProcessIndex i = 0; i < 5; ++i) {
    EXPECT_EQ(dynamic_cast<const CrashAAProcess&>(net.behavior(i)).value(), Rational(20));
  }
}

TEST(CrashAA, SurvivesTotalSilence) {
  const sim::SystemParams params{.n = 3, .t = 2};
  CrashAAProcess p(params, Rational(7), 1);
  p.on_receive(1, {});
  EXPECT_EQ(p.value(), Rational(7));
  EXPECT_TRUE(p.done());
}

}  // namespace
}  // namespace byzrename::aa
