#include "adversary/strategies/strategies.h"

#include "core/harness.h"
#include "core/op_renaming.h"
#include "core/rank_approx.h"
#include "numeric/bigint.h"
#include "numeric/rational.h"

namespace byzrename::adversary {

namespace {

using numeric::BigInt;
using numeric::Rational;

/// Honest through id selection, then sends exclusively malformed votes —
/// a different malformation per destination, cycling through every
/// rejection path of decode_vote/is_valid_ranks. If validation is
/// airtight, a run with this adversary is observationally identical to a
/// silent one (the tests assert exactly that, plus the rejection counts).
class InvalidVotesBehavior final : public sim::ProcessBehavior {
 public:
  InvalidVotesBehavior(const AdversaryEnv& env, sim::Id my_id)
      : env_(env),
        delta_(core::delta(env.params)),
        inner_(std::make_unique<core::OpRenamingProcess>(env.params, my_id, env.options)) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    sim::Outbox inner_out(/*targeted_allowed=*/false);
    inner_->on_send(round, inner_out);
    if (round <= 4) {
      for (const sim::Outbox::Entry& entry : inner_out.entries()) out.broadcast(entry.payload);
      return;
    }
    int kind = round;  // vary the malformation across rounds and receivers
    for (const auto& [index, id] : env_.correct) {
      out.send_to(index, malformed_vote(kind++));
    }
  }

  void on_receive(sim::Round round, const sim::Inbox& inbox) override {
    inner_->on_receive(round, inbox);
  }

  [[nodiscard]] bool done() const override { return true; }

 private:
  [[nodiscard]] sim::PayloadRef malformed_vote(int kind) const {
    const core::RankMap& honest = inner_->ranks();
    core::VoteBuilder vote = inner_->vote_builder();
    switch (kind % 6) {
      case 0:  // missing a timely id: drop the smallest entry
        for (auto it = honest.begin(); it != honest.end(); ++it) {
          if (it != honest.begin()) vote.push(it->first, it->second);
        }
        break;
      case 1:  // sub-delta spacing: compress everything onto one point
        for (const auto& [id, rank] : honest) vote.push(id, Rational(1));
        break;
      case 2:  // duplicate / unsorted entries
        for (const auto& [id, rank] : honest) vote.push(id, rank);
        if (!honest.empty()) vote.push(honest.begin()->first, honest.begin()->second);
        break;
      case 3: {  // denominator inflation beyond the wire budget
        const Rational huge(BigInt(1), BigInt(1) << 8192);
        for (const auto& [id, rank] : honest) vote.push(id, rank + huge);
        break;
      }
      case 4: {  // entry-count spam
        for (const auto& [id, rank] : honest) vote.push(id, rank);
        sim::Id next = honest.empty() ? 1 : honest.rbegin()->first;
        Rational rank = honest.empty() ? Rational(1) : honest.rbegin()->second;
        for (int i = 0; i < 3 * env_.params.n; ++i) {
          next += 1;
          rank += delta_;
          vote.push(next, rank);
        }
        break;
      }
      default:  // wrong message type for the voting phase
        return sim::EchoMsg{42};
    }
    return vote.wrap();
  }

  AdversaryEnv env_;
  Rational delta_;
  std::unique_ptr<core::OpRenamingProcess> inner_;
};

/// Alg. 4 flavor: step 1 honest, step 2 sends only MultiEchoes that must
/// fail is_valid_echo (oversized or insufficient overlap).
class InvalidEchoBehavior final : public sim::ProcessBehavior {
 public:
  InvalidEchoBehavior(const AdversaryEnv& env, sim::Id my_id) : env_(env), my_id_(my_id) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    if (round == 1) {
      out.broadcast(sim::IdMsg{my_id_});
      return;
    }
    if (round != 2) return;
    int kind = 0;
    for (const auto& [index, id] : env_.correct) {
      sim::MultiEchoMsg echo;
      if (kind++ % 2 == 0) {
        // Oversized: more than N ids.
        for (int i = 0; i <= env_.params.n; ++i) echo.ids.push_back(1'000'000 + i);
      } else {
        // Insufficient overlap with any correct timely set.
        for (int i = 0; i < env_.params.n - 1; ++i) echo.ids.push_back(2'000'000 + i);
      }
      out.send_to(index, std::move(echo));
    }
  }

  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }

 private:
  AdversaryEnv env_;
  sim::Id my_id_;
};

}  // namespace

std::vector<std::unique_ptr<sim::ProcessBehavior>> make_invalid_votes_team(
    const AdversaryEnv& env) {
  std::vector<std::unique_ptr<sim::ProcessBehavior>> team;
  team.reserve(env.byz_indices.size());
  for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
    switch (env.algorithm) {
      case core::Algorithm::kOpRenaming:
      case core::Algorithm::kOpRenamingConstantTime:
        team.push_back(std::make_unique<InvalidVotesBehavior>(env, env.byz_ids[i]));
        break;
      case core::Algorithm::kFastRenaming:
        team.push_back(std::make_unique<InvalidEchoBehavior>(env, env.byz_ids[i]));
        break;
      default:
        team.push_back(make_silent());
        break;
    }
  }
  return team;
}

}  // namespace byzrename::adversary
