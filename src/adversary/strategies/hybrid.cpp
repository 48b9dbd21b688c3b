#include "adversary/strategies/strategies.h"

#include "core/op_renaming.h"

namespace byzrename::adversary {

namespace {

/// The composed worst case for Alg. 1's convergence built entirely from
/// *valid* messages: the calibrated asymmetric-flood selection (Lemma
/// IV.7 met with equality — selection-honest adversaries provably cannot
/// diverge initial ranks at all), followed by split-world vote
/// equivocation that passes isValid at every receiver: the compressed
/// face pulls the favored half down, the stretched face pushes the
/// disfavored half up, slowing the approximation and steering where the
/// converged values land. This is the strongest pressure on Lemma IV.9's
/// iteration budget that the validation layer permits (bench_a1 probes
/// it next to the vote-silent asymflood).
///
/// An inner OpRenamingProcess consumes the same inbox a correct process
/// would, giving the attacker a consistent accepted/timely view from
/// which to craft votes that validate everywhere.
class HybridBehavior final : public sim::ProcessBehavior {
 public:
  HybridBehavior(const AdversaryEnv& env,
                 std::shared_ptr<const detail::AsymSelectionPlan> plan, int member,
                 sim::Id my_id)
      : env_(env),
        plan_(std::move(plan)),
        member_(member),
        inner_(std::make_unique<core::OpRenamingProcess>(env.params, my_id, env.options)) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    // Keep the inner state machine's send-side bookkeeping in step.
    sim::Outbox discard(/*targeted_allowed=*/false);
    inner_->on_send(round, discard);
    if (round <= 4) {
      detail::asym_selection_send(*plan_, member_, round, out);
      return;
    }

    // Voting: the two *group views* themselves, cross-sent. The inner
    // process holds the disfavored (low) view; the favored group's view
    // sits F*delta higher (F = number of asymmetric fakes). Sending the
    // HIGH face to the disfavored half and the LOW face to the favored
    // half keeps every faulty vote inside the correct range per id — so
    // trimming cannot discard it — while pulling each group toward the
    // other side as slowly as validity allows. Both faces keep exact
    // delta spacing, so both pass isValid at every receiver.
    const auto fakes = static_cast<std::int64_t>(plan_->fake_ids.size());
    core::VoteBuilder low_face = inner_->vote_builder();
    core::VoteBuilder high_face = inner_->vote_builder();
    inner_->for_each_rank([&](const core::RankRef& rank) {
      low_face.push(rank);
      high_face.push(rank, fakes);
    });
    const sim::PayloadRef low = low_face.wrap();
    const sim::PayloadRef high = high_face.wrap();
    const std::size_t half = env_.correct.size() / 2;
    for (std::size_t c = 0; c < env_.correct.size(); ++c) {
      // Indices < half are the disfavored group (asym plan convention).
      out.send_to(env_.correct[c].first, c < half ? high : low);
    }
  }

  void on_receive(sim::Round round, const sim::Inbox& inbox) override {
    inner_->on_receive(round, inbox);
  }

  [[nodiscard]] bool done() const override { return true; }

 private:
  AdversaryEnv env_;
  std::shared_ptr<const detail::AsymSelectionPlan> plan_;
  int member_;
  std::unique_ptr<core::OpRenamingProcess> inner_;
};

}  // namespace

std::vector<std::unique_ptr<sim::ProcessBehavior>> make_hybrid_team(const AdversaryEnv& env) {
  std::vector<std::unique_ptr<sim::ProcessBehavior>> team;
  team.reserve(env.byz_indices.size());
  switch (env.algorithm) {
    case core::Algorithm::kOpRenaming:
    case core::Algorithm::kOpRenamingConstantTime: {
      auto plan = detail::make_asym_selection_plan(env);
      for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
        team.push_back(
            std::make_unique<HybridBehavior>(env, plan, static_cast<int>(i), env.byz_ids[i]));
      }
      return team;
    }
    default:
      // Fall back to the strongest single-phase attack per protocol.
      return make_echo_suppress_team(env);
  }
}

}  // namespace byzrename::adversary
