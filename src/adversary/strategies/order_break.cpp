#include "adversary/strategies/strategies.h"

#include <optional>

#include "core/op_renaming.h"
#include "numeric/rational.h"

namespace byzrename::adversary {

namespace {

using numeric::Rational;

/// The attack the isValid filter (Alg. 2) exists to stop.
///
/// Selection phase: the calibrated asymmetric flood, so the favored half
/// of the correct processes starts with every correct rank F positions
/// above the disfavored half — correct processes now hold *overlapping
/// rank intervals*, which is precisely the situation the paper warns
/// makes raw Byzantine AA converge non-order-preservingly (Section I).
///
/// Voting phase: gap-collapsing votes. The two middle correct ids a < b
/// both get the value midway between the groups' views of a and b; that
/// point lies inside both ids' correct ranges, so trimming cannot remove
/// it, and each round it drags rank(a) up and rank(b) down. The votes
/// violate the delta-spacing rule, so with validation on they are all
/// rejected (Corollary IV.6 survives); with bench_a2's validation-off
/// ablation they land, and the delta-separation invariant collapses.
class OrderBreakBehavior final : public sim::ProcessBehavior {
 public:
  OrderBreakBehavior(const AdversaryEnv& env,
                     std::shared_ptr<const detail::AsymSelectionPlan> plan, int member,
                     sim::Id my_id)
      : env_(env),
        plan_(std::move(plan)),
        member_(member),
        delta_(core::delta(env.params)),
        inner_(std::make_unique<core::OpRenamingProcess>(env.params, my_id, env.options)) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    sim::Outbox discard(/*targeted_allowed=*/false);
    inner_->on_send(round, discard);
    if (round <= 4) {
      detail::asym_selection_send(*plan_, member_, round, out);
      return;
    }

    const std::size_t m = env_.correct.size();
    sim::Id a = 0;
    sim::Id b = 0;
    std::optional<Rational> target;
    if (m >= 2) {
      a = env_.correct[m / 2 - 1].second;
      b = env_.correct[m / 2].second;
      const std::optional<Rational> rank_a = inner_->rank_of(a);
      const std::optional<Rational> rank_b = inner_->rank_of(b);
      if (rank_a.has_value() && rank_b.has_value()) {
        // The inner process holds the disfavored (low) view; the favored
        // group sits F*delta higher, halving each round. Aim midway
        // between the two groups' midpoints of [a, b] so the collapsing
        // value stays inside both ids' correct ranges.
        Rational group_spread =
            Rational(static_cast<std::int64_t>(plan_->fake_ids.size())) * delta_;
        for (sim::Round r = 5; r <= round; ++r) group_spread = group_spread / Rational(2);
        target = (*rank_a + *rank_b + group_spread) / Rational(2);
      }
    }
    core::VoteBuilder vote = inner_->vote_builder();
    inner_->for_each_rank([&](const core::RankRef& rank) {
      if (target.has_value() && (rank.id == a || rank.id == b)) {
        vote.push(rank.id, *target);
      } else {
        vote.push(rank);
      }
    });
    out.broadcast(vote.wrap());
  }

  void on_receive(sim::Round round, const sim::Inbox& inbox) override {
    inner_->on_receive(round, inbox);
  }

  [[nodiscard]] bool done() const override { return true; }

 private:
  AdversaryEnv env_;
  std::shared_ptr<const detail::AsymSelectionPlan> plan_;
  int member_;
  Rational delta_;
  std::unique_ptr<core::OpRenamingProcess> inner_;
};

}  // namespace

std::vector<std::unique_ptr<sim::ProcessBehavior>> make_order_break_team(const AdversaryEnv& env) {
  std::vector<std::unique_ptr<sim::ProcessBehavior>> team;
  team.reserve(env.byz_indices.size());
  auto plan = detail::make_asym_selection_plan(env);
  for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
    switch (env.algorithm) {
      case core::Algorithm::kOpRenaming:
      case core::Algorithm::kOpRenamingConstantTime:
        team.push_back(
            std::make_unique<OrderBreakBehavior>(env, plan, static_cast<int>(i), env.byz_ids[i]));
        break;
      default:
        team.push_back(make_silent());
        break;
    }
  }
  return team;
}

}  // namespace byzrename::adversary
