#include "baselines/crash_renaming.h"

#include <map>

namespace byzrename::baselines {

using sim::Id;
using sim::Inbox;
using sim::Outbox;
using sim::Round;

CrashRenamingProcess::CrashRenamingProcess(sim::SystemParams params, Id my_id,
                                           core::RenamingOptions options)
    : params_(params),
      iterations_(options.approximation_iterations >= 0
                      ? options.approximation_iterations
                      : core::default_approximation_iterations(params.t)),
      delta_(core::delta(params)),
      my_id_(my_id) {}

void CrashRenamingProcess::on_send(Round round, Outbox& out) {
  if (decided_) return;
  if (round == 1) {
    out.broadcast(sim::IdMsg{my_id_});
    return;
  }
  out.broadcast(core::encode_vote(ranks_));
}

void CrashRenamingProcess::on_receive(Round round, const Inbox& inbox) {
  if (decided_) return;
  if (round == 1) {
    std::set<sim::LinkIndex> seen_links;
    for (const sim::Delivery& d : inbox) {
      const auto* msg = std::get_if<sim::IdMsg>(&*d.payload);
      if (msg == nullptr) continue;
      if (!seen_links.insert(d.link).second) continue;
      accepted_.insert(msg->id);
    }
    ranks_ = core::initial_ranks(accepted_, delta_);
    if (iterations_ == 0) decide();
    return;
  }

  std::map<sim::LinkIndex, core::RankMap> per_link;
  for (const sim::Delivery& d : inbox) {
    const auto* msg = std::get_if<sim::RanksMsg>(&*d.payload);
    if (msg == nullptr) continue;
    core::RankMap vote;
    if (!core::decode_vote(*msg, params_, vote)) continue;
    per_link.emplace(d.link, std::move(vote));
  }
  std::vector<core::RankMap> votes;
  votes.reserve(per_link.size());
  for (auto& [link, vote] : per_link) votes.push_back(std::move(vote));

  core::ApproximateResult result = core::approximate(params_, accepted_, ranks_, votes);
  ranks_ = std::move(result.new_ranks);

  if (round == 1 + iterations_) decide();
}

void CrashRenamingProcess::decide() {
  decided_ = true;
  const auto it = ranks_.find(my_id_);
  decision_ = it != ranks_.end() ? std::optional<sim::Name>(it->second.round().to_int64())
                                 : std::nullopt;
}

}  // namespace byzrename::baselines
