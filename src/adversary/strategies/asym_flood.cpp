#include "adversary/strategies/strategies.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

namespace byzrename::adversary {

// Calibrated *asymmetric* id flood against Alg. 1 — the execution that
// witnesses Lemma IV.7's worst case.
//
// Like the symmetric flood, it injects F = floor(f*m/(N-t-f)) fake ids;
// unlike it, every fake ends up in the accepted set of only the
// "favored" upper half of the correct processes:
//
//   step 1  each fake announced to exactly quota = N-t-f correct
//           processes (their echoes are the honest raw material);
//   step 2  the team's echoes are targeted at s = N-2t-1 "seed"
//           processes only, so exactly the seeds reach the N-t echo
//           threshold and say Ready in step 3 — one fewer than the N-2t
//           amplification quorum, so the Ready wave cannot spread on its
//           own;
//   step 3  the team Readys toward a = N-t-s-f "bridge" processes,
//           lifting them to the weak quorum so they amplify in step 4;
//   step 4  the team Readys toward the favored half, whose cumulative
//           count reaches exactly N-t; everyone else stays one short.
//
// All fake ids sort below every correct id, so favored processes rank
// every correct id F positions higher than disfavored ones: the initial
// discrepancy is exactly (t + floor(t^2/(N-2t))) * delta when f == t —
// Lemma IV.7 met with equality. The voting phase then has to burn the
// whole allowance down, making this the natural worst case for the
// convergence benches (F1, A1) and the base of the orderbreak attack.

namespace detail {

std::shared_ptr<const AsymSelectionPlan> make_asym_selection_plan(const AdversaryEnv& env) {
  auto plan = std::make_shared<AsymSelectionPlan>();
  const int n = env.params.n;
  const int t = env.params.t;
  const int f = static_cast<int>(env.byz_indices.size());
  const int m = static_cast<int>(env.correct.size());
  const int quota = std::max(1, n - t - f);
  const std::size_t fake_count = static_cast<std::size_t>((f * m) / quota);

  // Fake ids strictly below every correct id, so every fake displaces the
  // rank of every correct id at the processes that accept it.
  sim::Id lowest = env.correct.empty() ? 1'000'000 : env.correct.front().second;
  for (const auto& [index, id] : env.correct) lowest = std::min(lowest, id);
  for (const sim::Id id : env.byz_ids) lowest = std::min(lowest, id);
  for (std::size_t k = 0; k < fake_count; ++k) {
    plan->fake_ids.push_back(lowest - 1 - static_cast<sim::Id>(k));
  }

  plan->step1_sends.resize(static_cast<std::size_t>(f));
  for (int b = 0; b < f; ++b) {
    for (int c = 0; c < m; ++c) {
      const std::size_t slot = static_cast<std::size_t>(b) * static_cast<std::size_t>(m) +
                               static_cast<std::size_t>(c);
      const std::size_t fake = slot / static_cast<std::size_t>(quota);
      if (fake >= plan->fake_ids.size()) continue;
      plan->step1_sends[static_cast<std::size_t>(b)].emplace_back(
          env.correct[static_cast<std::size_t>(c)].first, plan->fake_ids[fake]);
    }
  }

  const int seeds = std::clamp(n - 2 * t - 1, 0, m);
  const int bridges = std::clamp(n - t - seeds - f, 0, m - seeds);
  for (int c = 0; c < seeds; ++c) {
    plan->seeds.push_back(env.correct[static_cast<std::size_t>(c)].first);
  }
  for (int c = seeds; c < seeds + bridges; ++c) {
    plan->bridges.push_back(env.correct[static_cast<std::size_t>(c)].first);
  }
  for (int c = m / 2; c < m; ++c) {
    plan->favored.push_back(env.correct[static_cast<std::size_t>(c)].first);
  }
  for (const auto& [index, id] : env.correct) plan->correct_ids.push_back(id);
  return plan;
}

void asym_selection_send(const AsymSelectionPlan& plan, int member, sim::Round round,
                         sim::Outbox& out) {
  switch (round) {
    case 1:
      for (const auto& [dest, fake] : plan.step1_sends[static_cast<std::size_t>(member)]) {
        out.send_to(dest, sim::IdMsg{fake});
      }
      break;
    case 2:
      for (const sim::Id fake : plan.fake_ids) {
        for (const sim::ProcessIndex dest : plan.seeds) out.send_to(dest, sim::EchoMsg{fake});
      }
      for (const sim::Id id : plan.correct_ids) out.broadcast(sim::EchoMsg{id});
      break;
    case 3:
      for (const sim::Id fake : plan.fake_ids) {
        for (const sim::ProcessIndex dest : plan.bridges) out.send_to(dest, sim::ReadyMsg{fake});
      }
      for (const sim::Id id : plan.correct_ids) out.broadcast(sim::ReadyMsg{id});
      break;
    case 4:
      for (const sim::Id fake : plan.fake_ids) {
        for (const sim::ProcessIndex dest : plan.favored) out.send_to(dest, sim::ReadyMsg{fake});
      }
      break;
    default:
      break;
  }
}

}  // namespace detail

namespace {

class AsymFloodBehavior final : public sim::ProcessBehavior {
 public:
  AsymFloodBehavior(std::shared_ptr<const detail::AsymSelectionPlan> plan, int member)
      : plan_(std::move(plan)), member_(member) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    detail::asym_selection_send(*plan_, member_, round, out);
    // Voting phase (rounds > 4): silent; the asymmetry is planted.
  }

  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }

 private:
  std::shared_ptr<const detail::AsymSelectionPlan> plan_;
  int member_;
};

/// Alg. 4 flavor — the execution that saturates Lemma VI.1's 2t^2 bound.
///
/// Each team member claims a fresh low id and announces it to the favored
/// half only; its echoes by that half are broadcast, so every counter
/// sits uniformly at m/2 — far below the min(counter, N-t) clamp, which
/// is what lets the team's own selective echoes matter. In step 2 the
/// favored half additionally receives, inside each faulty MultiEcho, the
/// f claimed ids (in-timely there, so free of the overlap budget) and t
/// never-announced "ghost" ids (exactly the overlap slack); t correct
/// ids are dropped to stay within the N-id cap, which is harmless since
/// correct counters clamp at N-t regardless. Favored processes therefore
/// count f extra echoes on each of the f claimed ids and f echoes on
/// each of t ghosts that the others never see:
///     Delta = f^2 + t*f = 2t^2   when f == t,
/// met with equality, while Lemma VI.2's N-t >= 2t^2+1 gap keeps order
/// preservation intact by exactly one name.
class AsymFastBehavior final : public sim::ProcessBehavior {
 public:
  AsymFastBehavior(const AdversaryEnv& env, int member) : env_(env), member_(member) {
    sim::Id lowest = env.correct.empty() ? 1'000'000 : env.correct.front().second;
    for (const auto& [index, id] : env.correct) lowest = std::min(lowest, id);
    for (const sim::Id id : env.byz_ids) lowest = std::min(lowest, id);
    const int f = static_cast<int>(env.byz_indices.size());
    for (int i = 0; i < f; ++i) claimed_.push_back(lowest - 1 - i);
    for (int i = 0; i < env.params.t; ++i) ghosts_.push_back(lowest - 1 - f - i);
    const std::size_t m = env.correct.size();
    for (std::size_t c = m / 2; c < m; ++c) favored_.push_back(env.correct[c].first);
    for (std::size_t c = 0; c < m / 2; ++c) disfavored_.push_back(env.correct[c].first);
  }

  void on_send(sim::Round round, sim::Outbox& out) override {
    if (round == 1) {
      for (const sim::ProcessIndex dest : favored_) {
        out.send_to(dest, sim::IdMsg{claimed_[static_cast<std::size_t>(member_)]});
      }
      return;
    }
    if (round != 2) return;

    // Favored half: (m - t) correct ids + f claimed + t ghosts == N ids,
    // overlap (m - t) + f == N - t exactly.
    sim::MultiEchoMsg favored_echo;
    const int keep = static_cast<int>(env_.correct.size()) - env_.params.t;
    for (int c = 0; c < keep; ++c) {
      favored_echo.ids.push_back(env_.correct[static_cast<std::size_t>(c)].second);
    }
    for (const sim::Id id : claimed_) favored_echo.ids.push_back(id);
    for (const sim::Id id : ghosts_) favored_echo.ids.push_back(id);

    // Disfavored half: all correct ids, nothing else.
    sim::MultiEchoMsg plain_echo;
    for (const auto& [index, id] : env_.correct) plain_echo.ids.push_back(id);

    const sim::PayloadRef favored(std::move(favored_echo));
    const sim::PayloadRef plain(std::move(plain_echo));
    for (const sim::ProcessIndex dest : favored_) out.send_to(dest, favored);
    for (const sim::ProcessIndex dest : disfavored_) out.send_to(dest, plain);
  }

  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }

 private:
  AdversaryEnv env_;
  int member_;
  std::vector<sim::Id> claimed_;
  std::vector<sim::Id> ghosts_;
  std::vector<sim::ProcessIndex> favored_;
  std::vector<sim::ProcessIndex> disfavored_;
};

}  // namespace

std::vector<std::unique_ptr<sim::ProcessBehavior>> make_asym_flood_team(const AdversaryEnv& env) {
  std::vector<std::unique_ptr<sim::ProcessBehavior>> team;
  team.reserve(env.byz_indices.size());
  if (env.algorithm == core::Algorithm::kFastRenaming) {
    for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
      team.push_back(std::make_unique<AsymFastBehavior>(env, static_cast<int>(i)));
    }
    return team;
  }
  auto plan = detail::make_asym_selection_plan(env);
  for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
    team.push_back(std::make_unique<AsymFloodBehavior>(plan, static_cast<int>(i)));
  }
  return team;
}

}  // namespace byzrename::adversary
