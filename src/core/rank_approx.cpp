#include "core/rank_approx.h"

#include <algorithm>

namespace byzrename::core {

using numeric::Rational;
using sim::Id;

bool decode_vote(const sim::RanksMsg& msg, const sim::SystemParams& params, RankMap& out) {
  if (static_cast<int>(msg.ids.size()) > max_vote_entries(params)) return false;
  out.clear();
  bool ok = true;
  msg.for_each_value([&](Id id, const Rational& rank) {
    if (!ok) return;
    // Unsorted or duplicate id, or an oversized encoding.
    ok = (out.empty() || id > out.rbegin()->first) && rank.encoded_bits() <= kMaxRankBits;
    if (ok) out.emplace_hint(out.end(), id, rank);
  });
  return ok;
}

bool is_valid_ranks(const std::set<Id>& timely, const RankMap& vote, const Rational& delta) {
  // Walking timely in id order and checking consecutive gaps covers all
  // pairs: delta-gaps are transitive over a sorted sequence.
  const Rational* previous_rank = nullptr;
  for (const Id id : timely) {
    const auto it = vote.find(id);
    if (it == vote.end()) return false;
    if (previous_rank != nullptr && it->second - *previous_rank < delta) return false;
    previous_rank = &it->second;
  }
  return true;
}

RankMap initial_ranks(const std::set<Id>& accepted, const Rational& delta) {
  RankMap ranks;
  std::int64_t position = 0;
  for (const Id id : accepted) {  // std::set iterates in sorted order
    ranks.emplace_hint(ranks.end(), id, Rational(++position) * delta);
  }
  return ranks;
}

Rational trimmed_mean(std::vector<Rational>& ballot, int t) {
  std::sort(ballot.begin(), ballot.end());
  // Positions t, 2t, ... below N - t: select_t of the trimmed middle.
  const auto trim = static_cast<std::size_t>(std::max(t, 0));
  Rational sum;
  std::int64_t count = 0;
  for (std::size_t i = trim; i + trim < ballot.size(); i += std::max<std::size_t>(trim, 1)) {
    sum += ballot[i];
    ++count;
  }
  return sum / Rational(count);
}

ApproximateResult approximate(const sim::SystemParams& params, std::set<Id>& accepted,
                              const RankMap& my_ranks, const std::vector<RankMap>& votes) {
  ApproximateResult result;
  const int n = params.n;
  const int t = params.t;

  for (auto it = accepted.begin(); it != accepted.end();) {
    const Id id = *it;
    std::vector<Rational> ballot;
    ballot.reserve(static_cast<std::size_t>(n));
    for (const RankMap& vote : votes) {
      const auto entry = vote.find(id);
      if (entry != vote.end()) ballot.push_back(entry->second);
    }

    if (static_cast<int>(ballot.size()) < n - t) {
      // Fewer than N-t votes: the id is discarded (Alg. 3, line 08). By
      // Corollary IV.5 this never happens to an id any correct process
      // holds timely.
      result.dropped.insert(id);
      it = accepted.erase(it);
      continue;
    }

    // Pad to exactly N entries with the local value (lines 10-11): local
    // values are always valid.
    const auto own = my_ranks.find(id);
    while (static_cast<int>(ballot.size()) < n) {
      ballot.push_back(own != my_ranks.end() ? own->second : Rational(0));
    }

    // Discard the t lowest and t highest (lines 12-14), whose remainder
    // lies within the range of correct inputs, and average select_t.
    result.new_ranks.emplace(id, trimmed_mean(ballot, t));
    ++it;
  }
  return result;
}

sim::RanksMsg encode_vote(const RankMap& ranks) {
  sim::RanksMsg msg;
  msg.ids.reserve(ranks.size());
  msg.exacts.reserve(ranks.size());
  for (const auto& [id, rank] : ranks) msg.push_exact(id, rank);
  return msg;
}

}  // namespace byzrename::core
