#include "adversary/strategies/strategies.h"

#include "core/harness.h"
#include "core/op_renaming.h"
#include "numeric/rational.h"

namespace byzrename::adversary {

namespace {

using numeric::Rational;

/// Honest through id selection, then broadcasts votes displaced by a huge
/// uniform offset whose sign alternates per round. Uniform shifts keep
/// the delta spacing, so every vote passes isValid — the trim step of
/// approximate() is the only defense, and Lemma IV.8's containment claim
/// (outputs stay in the correct inputs' range) is exactly what this
/// strategy tries to break.
class RankSkewBehavior final : public sim::ProcessBehavior {
 public:
  RankSkewBehavior(const AdversaryEnv& env, sim::Id my_id)
      : inner_(std::make_unique<core::OpRenamingProcess>(env.params, my_id, env.options)) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    sim::Outbox inner_out(/*targeted_allowed=*/false);
    inner_->on_send(round, inner_out);
    if (round <= 4) {
      for (const sim::Outbox::Entry& entry : inner_out.entries()) out.broadcast(entry.payload);
      return;
    }
    const std::int64_t shift = round % 2 == 0 ? 1'000'000 : -1'000'000;
    core::VoteBuilder skewed = inner_->vote_builder();
    inner_->for_each_rank([&](const core::RankRef& rank) { skewed.push(rank, 0, shift); });
    out.broadcast(skewed.wrap());
  }

  void on_receive(sim::Round round, const sim::Inbox& inbox) override {
    inner_->on_receive(round, inbox);
  }

  [[nodiscard]] bool done() const override { return true; }

 private:
  std::unique_ptr<core::OpRenamingProcess> inner_;
};

/// Scalar-AA flavor: broadcast an extreme value, alternating sign.
class ValueSkewBehavior final : public sim::ProcessBehavior {
 public:
  void on_send(sim::Round round, sim::Outbox& out) override {
    out.broadcast(sim::AAValueMsg{Rational(round % 2 == 0 ? 1'000'000'000 : -1'000'000'000)});
  }
  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }
};

}  // namespace

std::vector<std::unique_ptr<sim::ProcessBehavior>> make_rank_skew_team(const AdversaryEnv& env) {
  std::vector<std::unique_ptr<sim::ProcessBehavior>> team;
  team.reserve(env.byz_indices.size());
  for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
    switch (env.algorithm) {
      case core::Algorithm::kOpRenaming:
      case core::Algorithm::kOpRenamingConstantTime:
        team.push_back(std::make_unique<RankSkewBehavior>(env, env.byz_ids[i]));
        break;
      case core::Algorithm::kScalarAA:
        team.push_back(std::make_unique<ValueSkewBehavior>());
        break;
      default:
        team.push_back(core::make_correct_behavior(env.algorithm, env.params, env.byz_ids[i],
                                                   env.options, env.byz_indices[i]));
        break;
    }
  }
  return team;
}

}  // namespace byzrename::adversary
