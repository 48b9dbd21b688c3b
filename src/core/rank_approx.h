#ifndef BYZRENAME_CORE_RANK_APPROX_H
#define BYZRENAME_CORE_RANK_APPROX_H

#include <map>
#include <set>
#include <vector>

#include "core/params.h"
#include "numeric/rational.h"
#include "sim/payload.h"
#include "sim/types.h"

namespace byzrename::core {

/// A process's current rank estimates, keyed by original id. This is the
/// paper's sparse `ranks` array.
using RankMap = std::map<sim::Id, numeric::Rational>;

/// Decodes a received RanksMsg into a RankMap, rejecting structurally
/// malformed votes: duplicate or unsorted ids, more than
/// max_vote_entries entries, or a rank encoding beyond kMaxRankBits (see
/// core/params.h for why the size guard is principled). Returns false on
/// rejection.
[[nodiscard]] bool decode_vote(const sim::RanksMsg& msg, const sim::SystemParams& params,
                               RankMap& out);

/// Alg. 2: a vote is valid iff it ranks every id in the local `timely`
/// set and those ranks appear in id order separated by at least delta.
/// Correct processes always produce valid votes (Lemma IV.4), while the
/// check forces Byzantine votes — however inconsistent across receivers —
/// to respect the ordering of all timely ids, which is what lets the
/// per-id approximate agreements converge consistently.
[[nodiscard]] bool is_valid_ranks(const std::set<sim::Id>& timely, const RankMap& vote,
                                  const numeric::Rational& delta);

/// Alg. 1 lines 26-28: ranks[id] := position * delta, position being the
/// id's 1-based position in the sorted accepted set.
[[nodiscard]] RankMap initial_ranks(const std::set<sim::Id>& accepted,
                                    const numeric::Rational& delta);

/// Alg. 3 lines 12-16 on a ballot padded to N values: sorts it in place,
/// discards the t lowest and t highest, and returns the mean of select_t
/// of the rest, "the smallest and each t-th element after it" (paper,
/// Section IV-B): 0-based positions t, 2t, ... of the sorted ballot, and
/// every value when t == 0.
[[nodiscard]] numeric::Rational trimmed_mean(std::vector<numeric::Rational>& ballot, int t);

/// Result of one approximation step.
struct ApproximateResult {
  RankMap new_ranks;
  /// Ids dropped because they gathered fewer than N-t votes (never a
  /// timely id of any correct process, by Corollary IV.5).
  std::set<sim::Id> dropped;
};

/// Alg. 3: one voting step. For each id still in `accepted`, gathers the
/// votes for that id from all (already validated) received rank arrays,
/// drops ids with fewer than N-t votes, pads the multiset with the local
/// value to exactly N entries and moves to its trimmed_mean.
///
/// @param accepted  in/out: the local accepted set; dropped ids are removed.
/// @param my_ranks  the local rank estimates (source of padding values).
/// @param votes     the validated rank arrays received this step
///                  (including the process's own, via the self-loop).
[[nodiscard]] ApproximateResult approximate(const sim::SystemParams& params,
                                            std::set<sim::Id>& accepted, const RankMap& my_ranks,
                                            const std::vector<RankMap>& votes);

/// Encodes a RankMap as the wire payload: entries sorted by id, every
/// one exact (width 0).
[[nodiscard]] sim::RanksMsg encode_vote(const RankMap& ranks);

}  // namespace byzrename::core

#endif  // BYZRENAME_CORE_RANK_APPROX_H
