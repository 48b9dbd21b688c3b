#include "core/rank_approx.h"

#include <algorithm>

namespace byzrename::core {

using numeric::Rational;
using sim::Id;

bool decode_vote(const sim::RanksMsg& msg, const sim::SystemParams& params,
                 const RenamingOptions& options, RankMap& out) {
  const int max_entries =
      options.max_vote_entries >= 0 ? options.max_vote_entries : params.n + params.t;
  if (static_cast<int>(msg.ids.size()) > max_entries) return false;
  out.clear();
  bool ok = true;
  msg.for_each_value([&](Id id, const Rational& rank) {
    if (!ok) return;
    // Unsorted or duplicate id, or an oversized encoding.
    ok = (out.empty() || id > out.rbegin()->first) && rank.encoded_bits() <= options.max_rank_bits;
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

std::vector<Rational> select_t(const std::vector<Rational>& sorted, int t) {
  if (t <= 0) return sorted;
  std::vector<Rational> chosen;
  for (std::size_t i = 0; i < sorted.size(); i += static_cast<std::size_t>(t)) {
    chosen.push_back(sorted[i]);
  }
  return chosen;
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

    std::sort(ballot.begin(), ballot.end());
    // Discard the t lowest and t highest (lines 12-14); what remains is
    // guaranteed to lie within the range of correct inputs.
    std::vector<Rational> trimmed(ballot.begin() + t, ballot.end() - t);

    const std::vector<Rational> chosen = select_t(trimmed, t);
    Rational sum;
    for (const Rational& value : chosen) sum += value;
    result.new_ranks.emplace(id, sum / Rational(static_cast<std::int64_t>(chosen.size())));
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
