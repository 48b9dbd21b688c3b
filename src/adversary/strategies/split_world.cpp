#include "adversary/strategies/strategies.h"

#include <utility>

#include "core/harness.h"
#include "core/op_renaming.h"
#include "numeric/rational.h"

namespace byzrename::adversary {

namespace {

using numeric::Rational;

/// Honest through id selection, equivocating in the voting phase: half
/// the correct processes get a compressed rank array (every gap squeezed
/// to exactly delta), the other half a doubly-stretched one. Both pass
/// isValid everywhere, so this is the strongest disagreement a faulty
/// process can sow without being filtered.
class SplitWorldBehavior final : public sim::ProcessBehavior {
 public:
  SplitWorldBehavior(const AdversaryEnv& env, sim::Id my_id)
      : env_(env),
        inner_(std::make_unique<core::OpRenamingProcess>(env.params, my_id, env.options)) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    sim::Outbox inner_out(/*targeted_allowed=*/false);
    inner_->on_send(round, inner_out);
    if (round <= 4) {
      for (const sim::Outbox::Entry& entry : inner_out.entries()) out.broadcast(entry.payload);
      return;
    }

    // Craft the two faces from the inner process's honest accepted set,
    // each once per round, and share them across their targets.
    core::VoteBuilder compressed = inner_->vote_builder();
    core::VoteBuilder stretched = inner_->vote_builder();
    std::int64_t position = 0;
    inner_->for_each_rank([&](const core::RankRef& rank) {
      ++position;
      compressed.push_deltas(rank.id, position);
      stretched.push_deltas(rank.id, 2 * position);
    });
    const sim::PayloadRef low = compressed.wrap();
    const sim::PayloadRef high = stretched.wrap();
    const std::size_t half = env_.correct.size() / 2;
    for (std::size_t c = 0; c < env_.correct.size(); ++c) {
      out.send_to(env_.correct[c].first, c < half ? low : high);
    }
  }

  void on_receive(sim::Round round, const sim::Inbox& inbox) override {
    inner_->on_receive(round, inbox);
  }

  [[nodiscard]] bool done() const override { return true; }

 private:
  AdversaryEnv env_;
  std::unique_ptr<core::OpRenamingProcess> inner_;
};

/// Scalar-AA flavor: report a far-low value to one half and a far-high
/// value to the other.
class SplitValueBehavior final : public sim::ProcessBehavior {
 public:
  explicit SplitValueBehavior(const AdversaryEnv& env) : env_(env) {}

  void on_send(sim::Round, sim::Outbox& out) override {
    const std::size_t half = env_.correct.size() / 2;
    for (std::size_t c = 0; c < env_.correct.size(); ++c) {
      const Rational value(c < half ? -1'000'000 : 1'000'000);
      out.send_to(env_.correct[c].first, sim::AAValueMsg{value});
    }
  }
  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }

 private:
  AdversaryEnv env_;
};

}  // namespace

std::vector<std::unique_ptr<sim::ProcessBehavior>> make_split_world_team(const AdversaryEnv& env) {
  std::vector<std::unique_ptr<sim::ProcessBehavior>> team;
  team.reserve(env.byz_indices.size());
  for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
    switch (env.algorithm) {
      case core::Algorithm::kOpRenaming:
      case core::Algorithm::kOpRenamingConstantTime:
        team.push_back(std::make_unique<SplitWorldBehavior>(env, env.byz_ids[i]));
        break;
      case core::Algorithm::kScalarAA:
        team.push_back(std::make_unique<SplitValueBehavior>(env));
        break;
      default:
        // No voting phase to split; participate honestly, which is the
        // adversary's best remaining (non-)move for these protocols.
        team.push_back(core::make_correct_behavior(env.algorithm, env.params, env.byz_ids[i],
                                                   env.options, env.byz_indices[i]));
        break;
    }
  }
  return team;
}

}  // namespace byzrename::adversary
