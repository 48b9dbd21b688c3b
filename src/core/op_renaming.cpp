#include "core/op_renaming.h"

#include <map>
#include <stdexcept>
#include <utility>

namespace byzrename::core {

using numeric::Rational;
using sim::Id;
using sim::Inbox;
using sim::Outbox;
using sim::Round;

OpRenamingProcess::OpRenamingProcess(sim::SystemParams params, Id my_id, RenamingOptions options)
    : params_(params),
      options_(options),
      iterations_(options.approximation_iterations >= 0
                      ? options.approximation_iterations
                      : default_approximation_iterations(params.t)),
      delta_(delta(params)),
      selection_(params, my_id) {
  if (!valid_for_op_renaming(params)) {
    throw std::invalid_argument("OpRenamingProcess: requires N > 3t");
  }
  if (options_.rank_kernel != RankKernel::kExact) {
    engine_.emplace(params_, options_, iterations_);
    if (!engine_->enabled()) engine_.reset();  // over-budget instance: oracle only
  }
  kernel_ = engine_.has_value() ? options_.rank_kernel : RankKernel::kExact;
}

void OpRenamingProcess::on_send(Round round, Outbox& out) {
  if (decided_) return;
  if (round <= 4) {
    selection_.on_send(round, out);
    return;
  }
  if (kernel_ == RankKernel::kExact) {
    out.broadcast(encode_vote(ranks_));
  } else {
    out.broadcast(engine_->encode_ranks());
  }
}

void OpRenamingProcess::on_receive(Round round, const Inbox& inbox) {
  if (decided_) return;
  if (round <= 4) {
    selection_.on_receive(round, inbox);
    if (round == 4) {
      accepted_ = selection_.accepted();
      assign_initial_ranks();
      if (iterations_ == 0) decide();
    }
    return;
  }

  if (kernel_ == RankKernel::kExact) {
    exact_step(inbox, ranks_, accepted_, rejected_votes_);
  } else {
    engine_->step(inbox, selection_.timely(), accepted_, rejected_votes_);
    ranks_cache_valid_ = false;
    if (kernel_ == RankKernel::kCheck) {
      exact_step(inbox, shadow_ranks_, shadow_accepted_, shadow_rejected_);
      if (engine_->materialize() != shadow_ranks_ || accepted_ != shadow_accepted_ ||
          rejected_votes_ != shadow_rejected_) {
        throw std::logic_error(
            "OpRenamingProcess: fixed kernel diverged from the exact oracle");
      }
    }
  }

  if (round == 4 + iterations_) decide();
}

void OpRenamingProcess::exact_step(const Inbox& inbox, RankMap& ranks, std::set<Id>& accepted,
                                   int& rejected) {
  // Voting step: accept at most one vote per link (a link spamming
  // several arrays is provably faulty; counting them all would let one
  // Byzantine process outvote the trim).
  std::map<sim::LinkIndex, RankMap> per_link;
  for (const sim::Delivery& d : inbox) {
    const auto* msg = std::get_if<sim::RanksMsg>(&*d.payload);
    if (msg == nullptr) continue;
    if (per_link.contains(d.link)) {
      ++rejected;
      continue;
    }
    RankMap vote;
    if (!decode_vote(*msg, params_, vote) ||
        (options_.validate_votes && !is_valid_ranks(selection_.timely(), vote, delta_))) {
      ++rejected;
      continue;
    }
    per_link.emplace(d.link, std::move(vote));
  }

  std::vector<RankMap> votes;
  votes.reserve(per_link.size());
  for (auto& [link, vote] : per_link) votes.push_back(std::move(vote));

  ApproximateResult result = approximate(params_, accepted, ranks, votes);
  ranks = std::move(result.new_ranks);
}

void OpRenamingProcess::assign_initial_ranks() {
  // ranks[id] := rank(accepted, id) * delta, rank being the 1-based
  // position in the sorted accepted set (Alg. 1, lines 26-28).
  if (kernel_ == RankKernel::kExact) {
    ranks_ = initial_ranks(accepted_, delta_);
    return;
  }
  engine_->assign_initial_ranks(accepted_);
  ranks_cache_valid_ = false;
  if (kernel_ == RankKernel::kCheck) {
    shadow_accepted_ = accepted_;
    shadow_rejected_ = rejected_votes_;
    shadow_ranks_ = initial_ranks(shadow_accepted_, delta_);
    if (engine_->materialize() != shadow_ranks_) {
      throw std::logic_error("OpRenamingProcess: fixed initial ranks diverged from exact");
    }
  }
}

const RankMap& OpRenamingProcess::ranks() const {
  if (kernel_ == RankKernel::kExact) return ranks_;
  if (!ranks_cache_valid_) {
    ranks_cache_ = engine_->materialize();
    ranks_cache_valid_ = true;
  }
  return ranks_cache_;
}

std::optional<Rational> OpRenamingProcess::rank_of(Id id) const {
  if (engine_.has_value()) return engine_->rank_of(id);
  const auto it = ranks_.find(id);
  if (it == ranks_.end()) return std::nullopt;
  return it->second;
}

VoteBuilder OpRenamingProcess::vote_builder() const {
  VoteBuilder builder(engine_.has_value() ? &engine_->spec() : nullptr, delta_);
  builder.reserve(engine_.has_value() ? engine_->rank_count() : ranks_.size());
  return builder;
}

void OpRenamingProcess::decide() {
  decided_ = true;
  const std::optional<Rational> rank = rank_of(selection_.my_id());
  if (!rank.has_value()) {
    // Cannot happen for valid parameters: my id is timely at every
    // correct process (Lemma IV.2), hence never dropped (Cor. IV.5).
    decision_ = std::nullopt;
    return;
  }
  decision_ = rank->round().to_int64();
}

}  // namespace byzrename::core
