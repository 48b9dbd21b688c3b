#include "adversary/strategies/strategies.h"

#include <algorithm>
#include <utility>

namespace byzrename::adversary {

namespace {

/// Alg. 1 flavor: announces its own id to barely enough correct
/// processes and echoes selectively, so the id lands in the timely set of
/// some correct processes but only in the accepted set of others — the
/// widest initial rank discrepancy the selection phase permits (the
/// execution behind Lemma IV.7's bound).
class SuppressSelectionBehavior final : public sim::ProcessBehavior {
 public:
  SuppressSelectionBehavior(const AdversaryEnv& env, sim::Id my_id)
      : env_(env), my_id_(my_id) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    const auto& correct = env_.correct;
    const int n = env_.params.n;
    const int t = env_.params.t;
    switch (round) {
      case 1: {
        // Announce to exactly N-2t correct processes: enough that their
        // echoes alone can carry the id to the weak threshold, few
        // enough that nothing is guaranteed.
        const int receivers = std::min<int>(static_cast<int>(correct.size()), n - 2 * t);
        for (int c = 0; c < receivers; ++c) out.send_to(correct[static_cast<std::size_t>(c)].first, sim::IdMsg{my_id_});
        break;
      }
      case 2: {
        // Echo own id to half the correct processes only: combined with
        // the N-2t honest echoes, that half sees an echo quorum and
        // becomes Ready; the other half does not.
        for (std::size_t c = 0; c < correct.size() / 2; ++c) {
          out.send_to(correct[c].first, sim::EchoMsg{my_id_});
        }
        // Echo all correct ids honestly (they are unstoppable anyway).
        for (const auto& [index, id] : correct) out.broadcast(sim::EchoMsg{id});
        break;
      }
      case 3: {
        // Ready own id towards a third of the system; correct Readys
        // plus these leave some processes just above N-2t and others
        // just below N-t, maximizing timely/accepted asymmetry.
        for (std::size_t c = 0; c < correct.size() / 3; ++c) {
          out.send_to(correct[c].first, sim::ReadyMsg{my_id_});
        }
        for (const auto& [index, id] : correct) out.broadcast(sim::ReadyMsg{id});
        break;
      }
      default:
        break;  // step 4 and voting: silent
    }
  }

  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }

 private:
  AdversaryEnv env_;
  sim::Id my_id_;
};

/// Alg. 4 flavor: announce the faulty id to only half of the correct
/// processes — so its echo counter stays below the min(counter, N-t)
/// clamp — then echo every faulty id to one half of the system and to
/// nobody else. Each faulty id's counter differs by f across the halves,
/// which is the execution that pushes the per-id name discrepancy toward
/// Lemma VI.1's 2t^2 bound.
class SuppressFastBehavior final : public sim::ProcessBehavior {
 public:
  SuppressFastBehavior(const AdversaryEnv& env, sim::Id my_id) : env_(env), my_id_(my_id) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    const std::size_t half = env_.correct.size() / 2;
    if (round == 1) {
      // Only the first half ever hears this faulty id directly; their
      // honest echoes keep its counter at m/2 << N-t everywhere.
      for (std::size_t c = 0; c < half; ++c) {
        out.send_to(env_.correct[c].first, sim::IdMsg{my_id_});
      }
      return;
    }
    if (round != 2) return;
    sim::MultiEchoMsg without_faulty;
    for (const auto& [index, id] : env_.correct) without_faulty.ids.push_back(id);
    sim::MultiEchoMsg with_faulty = without_faulty;
    for (const sim::Id id : env_.byz_ids) with_faulty.ids.push_back(id);
    const sim::PayloadRef with(std::move(with_faulty));
    const sim::PayloadRef without(std::move(without_faulty));
    for (std::size_t c = 0; c < env_.correct.size(); ++c) {
      out.send_to(env_.correct[c].first, c < half ? with : without);
    }
  }

  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }

 private:
  AdversaryEnv env_;
  sim::Id my_id_;
};

}  // namespace

std::vector<std::unique_ptr<sim::ProcessBehavior>> make_echo_suppress_team(
    const AdversaryEnv& env) {
  std::vector<std::unique_ptr<sim::ProcessBehavior>> team;
  team.reserve(env.byz_indices.size());
  for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
    if (env.algorithm == core::Algorithm::kFastRenaming) {
      team.push_back(std::make_unique<SuppressFastBehavior>(env, env.byz_ids[i]));
    } else {
      team.push_back(std::make_unique<SuppressSelectionBehavior>(env, env.byz_ids[i]));
    }
  }
  return team;
}

}  // namespace byzrename::adversary
