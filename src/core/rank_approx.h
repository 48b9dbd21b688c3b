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
/// malformed votes: duplicate or unsorted ids, oversized entry counts, or
/// rank encodings beyond options.max_rank_bits (see RenamingOptions for
/// why the size guard is principled). Returns false on rejection.
[[nodiscard]] bool decode_vote(const sim::RanksMsg& msg, const sim::SystemParams& params,
                               const RenamingOptions& options, RankMap& out);

/// Alg. 2: a vote is valid iff it ranks every id in the local `timely`
/// set and those ranks appear in id order separated by at least delta.
/// Correct processes always produce valid votes (Lemma IV.4), while the
/// check forces Byzantine votes — however inconsistent across receivers —
/// to respect the ordering of all timely ids, which is what lets the
/// per-id approximate agreements converge consistently.
[[nodiscard]] bool is_valid_ranks(const std::set<sim::Id>& timely, const RankMap& vote,
                                  const numeric::Rational& delta);

/// select_t: "the smallest and each t-th element after it" of a sorted
/// multiset — 0-based positions 0, t, 2t, ... (paper, Section IV-B). For
/// t == 0 the whole multiset is returned.
[[nodiscard]] std::vector<numeric::Rational> select_t(const std::vector<numeric::Rational>& sorted,
                                                      int t);

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
/// value to exactly N entries, discards the t lowest and t highest, and
/// averages the select_t subsequence of the remainder.
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
