#include "adversary/strategies/strategies.h"

#include "numeric/rational.h"
#include "sim/rng.h"

namespace byzrename::adversary {

namespace {

using numeric::Rational;

/// Sprays random, syntactically plausible protocol messages at random
/// destinations each round. Not a calibrated attack — a fuzzer that makes
/// sure no code path assumes well-behaved peers.
class RandomLiesBehavior final : public sim::ProcessBehavior {
 public:
  RandomLiesBehavior(const AdversaryEnv& env, sim::Rng rng)
      : n_(env.params.n), rng_(std::move(rng)) {
    for (const auto& [index, id] : env.correct) id_pool_.push_back(id);
    for (const sim::Id id : env.byz_ids) id_pool_.push_back(id);
    // Some ids nobody owns, for fake-id announcements.
    for (int i = 0; i < env.params.n; ++i) id_pool_.push_back(rng_.uniform(1, 1'000'000'000'000));
  }

  void on_send(sim::Round, sim::Outbox& out) override {
    const int messages = static_cast<int>(rng_.uniform(1, 2 * n_));
    for (int m = 0; m < messages; ++m) {
      const auto dest = static_cast<sim::ProcessIndex>(rng_.uniform(0, n_ - 1));
      out.send_to(dest, random_payload());
    }
  }

  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }

 private:
  [[nodiscard]] sim::Id random_id() {
    return id_pool_[static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(id_pool_.size()) - 1))];
  }

  [[nodiscard]] sim::Payload random_payload() {
    switch (rng_.uniform(0, 5)) {
      case 0:
        return sim::IdMsg{random_id()};
      case 1:
        return sim::EchoMsg{random_id()};
      case 2:
        return sim::ReadyMsg{random_id()};
      case 3: {
        sim::RanksMsg msg;
        const int entries = static_cast<int>(rng_.uniform(0, n_));
        for (int e = 0; e < entries; ++e) {
          const sim::Id id = random_id();  // first, to keep the seeded draw order
          msg.push_exact(id, Rational::of(rng_.uniform(-1000, 1000), rng_.uniform(1, 7)));
        }
        return msg;
      }
      case 4: {
        sim::MultiEchoMsg msg;
        const int entries = static_cast<int>(rng_.uniform(0, n_));
        for (int e = 0; e < entries; ++e) msg.ids.push_back(random_id());
        return msg;
      }
      default: {
        sim::WordMsg msg{rng_.uniform(0, 3000), {}};
        const int words = static_cast<int>(rng_.uniform(0, 6));
        for (int w = 0; w < words; ++w) msg.words.push_back(rng_.uniform(-100, 100));
        return msg;
      }
    }
  }

  int n_;
  sim::Rng rng_;
  std::vector<sim::Id> id_pool_;
};

}  // namespace

std::vector<std::unique_ptr<sim::ProcessBehavior>> make_random_lies_team(const AdversaryEnv& env) {
  sim::Rng rng(env.seed * 2654435761ull + 13);
  std::vector<std::unique_ptr<sim::ProcessBehavior>> team;
  team.reserve(env.byz_indices.size());
  for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
    team.push_back(std::make_unique<RandomLiesBehavior>(env, rng.fork()));
  }
  return team;
}

}  // namespace byzrename::adversary
