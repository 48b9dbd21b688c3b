#ifndef BYZRENAME_CORE_VOTING_KERNEL_H
#define BYZRENAME_CORE_VOTING_KERNEL_H

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/params.h"
#include "core/rank_approx.h"
#include "numeric/fixed_rank.h"
#include "sim/payload.h"
#include "sim/types.h"

namespace byzrename::core {

/// Trimmed-mean select_t averaging over a padded ballot of fixed-point
/// values — the arithmetic heart of one Alg. 3 voting step, shared by
/// the renaming engine and the AA substrate. Entries are held as
/// offset-binary sort keys (flipping the top limb's sign bit maps two's-
/// complement order onto unsigned order): one u128 per value at width 2,
/// a big-endian limb array above. Storage is pooled inside the object,
/// so steady-state ballots allocate nothing.
class FixedBallotKernel {
 public:
  enum class Outcome {
    kOk,         ///< average written to out (on-grid)
    kRemainder,  ///< sum not divisible by c: caller must fall back to
                 ///< the exact value sum / (c * S), provided in sum_out
  };

  /// From here on, ballots hold n values on `spec`'s grid.
  void prepare(const numeric::FixedSpec& spec, int n);

  /// Returns fill(set); set(i, value) stores entry i, value being
  /// spec.width two's-complement limbs. `set` is specialized to the
  /// width, so the loop inside `fill` pays no per-entry dispatch.
  template <typename Fill>
  decltype(auto) fill(Fill&& fill) {
    if (width_ == 2) {
      return fill([keys = keys_.data()](int i, const numeric::limb_t* value) {
        keys[i] = (static_cast<numeric::uwide_t>(value[1] ^ numeric::kSignBias) << 64) | value[0];
      });
    }
    return fill([keys = wide_keys_.data(), w = width_](int i, const numeric::limb_t* value) {
      WideKey& key = keys[i];
      key.fill(0);
      for (int j = 0; j < w; ++j) key[static_cast<std::size_t>(j)] = value[w - 1 - j];
      key[0] ^= numeric::kSignBias;
    });
  }

  /// value := entry i, as stored (average reorders the entries).
  void get(int i, numeric::limb_t* value) const noexcept;

  /// Sorts the ballot, discards the t lowest/highest, sums the select_t
  /// positions and divides by spec.select_count. Equal by construction
  /// to rank_approx's trimmed_mean on the same multiset.
  Outcome average(numeric::limb_t* out, numeric::BigInt& sum_out);

 private:
  using WideKey = std::array<numeric::limb_t, numeric::kFixedRankLimbs>;

  int width_ = 0;
  int n_ = 0;
  int t_ = 0;
  int picks_ = 0;                       ///< spec.select_count
  std::vector<numeric::uwide_t> keys_;  ///< width == 2
  std::vector<WideKey> wide_keys_;      ///< width > 2: big-endian, lexicographic order
};

/// One current rank as a vote producer reads it without materializing
/// the rank map: on the instance grid (`num`, spec.width limbs over S)
/// or, once it left the grid, exact (`exact`, with num null).
struct RankRef {
  sim::Id id = 0;
  const numeric::limb_t* num = nullptr;
  const numeric::Rational* exact = nullptr;
};

/// Builds one Alg. 1 vote the way FixedVotingEngine::encode_ranks lays
/// out its own: entries on the instance grid as limbs, the rest on the
/// vote's exact side list. Byzantine producers build each face once per
/// round and hand the one PayloadRef wrap() returns to all of that
/// face's targets. Push entries in ascending id order. The affine pushes
/// cover the equivocating strategies' faces (a rank, moved by whole
/// deltas and whole units) and run in limbs while the result stays on
/// the grid.
class VoteBuilder {
 public:
  /// Without a usable grid (null, or !ok: the exact kernel, an
  /// over-budget instance) every entry is exact (width 0). `grid` must
  /// outlive the builder.
  VoteBuilder(const numeric::FixedSpec* grid, numeric::Rational delta);

  void reserve(std::size_t entries);

  /// Appends rank + deltas * delta + units under the rank's id. A rank
  /// with limbs must come from a source on this builder's grid.
  void push(const RankRef& rank, std::int64_t deltas = 0, std::int64_t units = 0);

  /// Appends deltas * delta.
  void push_deltas(sim::Id id, std::int64_t deltas);

  /// Appends an exact value; it goes on the grid when it fits there.
  void push(sim::Id id, const numeric::Rational& value);

  /// Wraps the vote built so far in one shared payload and empties the
  /// builder.
  [[nodiscard]] sim::PayloadRef wrap();

 private:
  void push_affine(sim::Id id, const RankRef* base, std::int64_t deltas, std::int64_t units);

  const numeric::FixedSpec* grid_;  ///< null: every entry is exact
  numeric::Rational delta_;
  sim::RanksMsg msg_;
};

/// Computes each distinct process view of one Alg. 1 instance once. A
/// fixed-kernel voting step is a pure function of the engine's state,
/// its timely set and the multiset of per-link vote runs it receives:
/// ballots are sorted before averaging, and a link admits the first
/// valid vote of its run. So processes with equal views share one step.
/// The first computes it; the rest load its successor state and its
/// rejected-vote count.
///
/// Keys compare payload objects by identity and hits need full key
/// equality, never a bare hash match. An entry pins the objects its key
/// names (sim::PayloadRef::Pin) and matches only while they are alive:
/// a reused address never matches, and a Byzantine vote is still freed
/// with its last delivery. States are interned by content, so one class
/// of processes broadcasts one vote object, and classes that converge
/// merge again. Entries and states from before the previous voting step
/// are dropped, and storage is pooled, so the cache holds O(classes)
/// entries. Hits, misses and evictions follow from object identity and
/// step order only, never from addresses. Single-threaded: one cache
/// per instance, attached through RenamingOptions::view_cache.
class ViewCache {
 public:
  ViewCache() = default;
  ViewCache(const ViewCache&) = delete;
  ViewCache& operator=(const ViewCache&) = delete;

  /// Voting steps routed through the cache.
  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  /// Voting steps the cache computed rather than loaded.
  [[nodiscard]] std::uint64_t computed() const noexcept { return computed_; }

 private:
  friend class FixedVotingEngine;

  /// Everything a step depends on besides its key. The first engine
  /// sets it; an engine that differs runs uncached.
  struct Domain {
    int n = 0;
    int t = 0;
    std::int32_t width = 0;
    std::array<numeric::limb_t, numeric::kFixedRankLimbs> scale{};
    bool validate_votes = true;
    friend bool operator==(const Domain&, const Domain&) = default;
  };

  /// A payload named by address, and pinned so the address cannot name
  /// another payload while the entry matches.
  struct Pinned {
    const sim::Payload* address = nullptr;
    sim::PayloadRef::Pin pin;
  };

  struct Entry {
    std::uint64_t hash = 0;
    Pinned state;                    ///< key: the engine's state vote
    std::uint32_t timely = 0;        ///< key: interned timely set
    std::uint32_t first_run = 0;     ///< key: run lengths, in Generation::run_lengths
    std::uint32_t runs = 0;
    std::uint32_t first_vote = 0;    ///< key: the runs' votes back to back
    std::uint32_t votes = 0;
    sim::PayloadRef next;            ///< result: the successor state
    int rejected = 0;                ///< result: votes rejected
  };

  /// The entries and interned states of one voting step.
  struct Generation {
    int epoch = 0;
    std::vector<Entry> entries;
    std::vector<Pinned> votes;
    std::vector<std::uint32_t> run_lengths;
    /// Interned states by content hash: the only payloads the cache
    /// keeps alive, besides entry results.
    std::vector<std::pair<std::uint64_t, sim::PayloadRef>> states;
    void clear();
  };

  struct Run {
    std::uint32_t begin = 0;
    std::uint32_t length = 0;
  };

  [[nodiscard]] bool join(const Domain& domain);
  /// Index of the interned copy of `timely`; `hint` is tried first.
  [[nodiscard]] std::uint32_t intern_timely(const std::vector<sim::Id>& timely,
                                            std::uint32_t hint);
  /// Moves to voting step `epoch`: a step later keeps the current
  /// generation as the previous one, a larger jump drops both.
  void advance(int epoch);
  /// Builds the key of a step. False when a link's deliveries are not
  /// contiguous, as the Inbox contract promises: the step then runs
  /// uncached.
  [[nodiscard]] bool probe(const sim::PayloadRef& state, std::uint32_t timely,
                           const sim::Inbox& inbox);
  /// The entry matching the probed key, moved into the current
  /// generation, or null.
  [[nodiscard]] const Entry* find();
  void insert(const sim::PayloadRef& next, int rejected);
  /// An interned state with this content hash that `same` accepts, or
  /// an empty ref.
  template <typename Same>
  [[nodiscard]] sim::PayloadRef find_state(std::uint64_t hash, Same&& same) {
    for (const std::size_t g : {cur_, cur_ ^ 1}) {
      for (const auto& [state_hash, state] : gens_[g].states) {
        if (state_hash != hash || !same(std::get<sim::RanksMsg>(*state))) continue;
        sim::PayloadRef found = state;
        if (g != cur_) gens_[cur_].states.emplace_back(hash, found);
        return found;
      }
    }
    return {};
  }
  void add_state(std::uint64_t hash, const sim::PayloadRef& state) {
    gens_[cur_].states.emplace_back(hash, state);
  }
  [[nodiscard]] bool matches(const Generation& gen, const Entry& entry) const;
  const Entry& add_entry(const Pinned& state, const sim::PayloadRef& next, int rejected);

  std::optional<Domain> domain_;
  std::vector<std::vector<sim::Id>> timely_sets_;
  std::array<Generation, 2> gens_;
  std::size_t cur_ = 0;

  // --- probe scratch: the key of the step in flight ------------------
  std::vector<const sim::PayloadRef*> inbox_votes_;  ///< RanksMsg deliveries, inbox order
  std::vector<Run> runs_;
  std::vector<int> link_stamp_;  ///< stamped with probe_serial_, never cleared
  int probe_serial_ = 0;
  std::vector<const sim::PayloadRef*> key_votes_;  ///< runs in canonical order
  std::vector<std::uint32_t> key_lengths_;
  const sim::PayloadRef* key_state_ = nullptr;
  std::uint32_t key_timely_ = 0;
  std::uint64_t key_hash_ = 0;

  std::uint64_t lookups_ = 0;
  std::uint64_t computed_ = 0;
};

/// Fixed-point voting engine: the SoA rank state of one renaming
/// process plus one Alg. 3 step over an inbox. Ranks live as `width`
/// two's-complement limbs over the instance scale S; the rare values
/// Byzantine senders push off the 1/S grid are carried as exact
/// Rational overrides, and any ballot touching one is averaged by the
/// exact oracle — which makes every observable output (decisions,
/// accepted sets, rejected counts, wire bytes) bit-identical to the
/// pure exact-Rational path while the honest fast path runs heap-free.
///
/// With options.view_cache set, the engine steps through that cache:
/// its state is also held as one interned vote, which encode_ranks
/// returns, and a step whose view another engine already computed
/// loads that result. Without one it computes every step itself.
class FixedVotingEngine {
 public:
  FixedVotingEngine(sim::SystemParams params, RenamingOptions options, int iterations);

  /// False when the derived spec does not fit the supported width; the
  /// caller must run the exact kernel for the whole instance.
  [[nodiscard]] bool enabled() const noexcept { return spec_.ok; }

  [[nodiscard]] const numeric::FixedSpec& spec() const noexcept { return spec_; }

  /// ranks[id] := position * delta over the sorted accepted set.
  void assign_initial_ranks(const std::set<sim::Id>& accepted);

  /// This round's broadcast: the state columns, with the ranks carried
  /// as overrides on the side list. With a cache, the interned state
  /// vote itself.
  [[nodiscard]] sim::PayloadRef encode_ranks() const;

  /// True when the engine steps through a ViewCache.
  [[nodiscard]] bool cached() const noexcept { return cache_ != nullptr; }

  /// Visits the current ranks in id order.
  template <typename Visit>
  void for_each_rank(Visit&& visit) const {
    for (std::size_t k = 0; k < ids_.size(); ++k) {
      if (is_exact_[k] != 0) {
        visit(RankRef{ids_[k], nullptr, &overrides_.at(ids_[k])});
      } else {
        visit(RankRef{ids_[k], nums_.data() + k * static_cast<std::size_t>(w_), nullptr});
      }
    }
  }

  /// One voting step: admits at most one structurally valid vote per
  /// link (mirroring decode_vote + is_valid_ranks), gathers per-id
  /// ballots by merge over the sorted votes, drops ids under n-t
  /// ballots from `accepted`, pads to n with the local rank, and
  /// averages. Steady-state heap allocations: zero.
  void step(const sim::Inbox& inbox, const std::set<sim::Id>& timely,
            std::set<sim::Id>& accepted, int& rejected_votes);

  /// Current ranks in the oracle representation (canonical Rationals).
  [[nodiscard]] RankMap materialize() const;

  /// Rank of one id, if still held.
  [[nodiscard]] std::optional<numeric::Rational> rank_of(sim::Id id) const;

  /// Number of ranks currently held.
  [[nodiscard]] std::size_t rank_count() const noexcept { return ids_.size(); }

  /// Number of ranks currently carried as exact overrides (diagnostics).
  [[nodiscard]] int override_count() const noexcept { return static_cast<int>(overrides_.size()); }

 private:
  using Exact = sim::RanksMsg::Exact;

  static constexpr std::uint32_t kNoSide = ~std::uint32_t{0};

  /// An admitted vote, read in place from its message, with merge
  /// cursors into its entries and its side list.
  struct Vote {
    const sim::Id* ids = nullptr;
    const numeric::limb_t* nums = nullptr;
    std::uint32_t count = 0;
    std::uint32_t cursor = 0;
    const Exact* side = nullptr;  ///< first side entry not yet passed
    const Exact* side_end = nullptr;
    std::uint32_t side_at = kNoSide;  ///< side->first, kNoSide past the end

    void pass_side() noexcept {
      ++side;
      side_at = side != side_end ? side->first : kNoSide;
    }
  };

  /// The step itself, over timely_flat_.
  void compute(const sim::Inbox& inbox, std::set<sim::Id>& accepted, int& rejected_votes);
  [[nodiscard]] sim::PayloadRef encode_columns() const;
  /// The cache's vote with the current columns, made on first sight.
  [[nodiscard]] sim::PayloadRef intern_state();
  /// Takes `next`, a successor of the current state, as the state; ids
  /// it lacks leave `accepted`, as compute drops them.
  void load(const sim::RanksMsg& next, std::set<sim::Id>& accepted);
  /// Admits a vote that passes the checks decode_vote + is_valid_ranks
  /// apply to its values.
  [[nodiscard]] bool admit(const sim::RanksMsg& msg);
  void push_result(sim::Id id, const numeric::limb_t* num);
  void push_override(sim::Id id, numeric::Rational value);

  sim::SystemParams params_;
  RenamingOptions options_;
  numeric::FixedSpec spec_;
  numeric::Rational delta_;
  int w_ = 0;

  // --- state: parallel arrays sorted by id, overrides on the side ----
  std::vector<sim::Id> ids_;
  std::vector<numeric::limb_t> nums_;
  std::vector<unsigned char> is_exact_;
  std::map<sim::Id, numeric::Rational> overrides_;

  // --- view sharing (null cache: unused) -----------------------------
  ViewCache* cache_ = nullptr;
  sim::PayloadRef state_;        ///< the interned vote of the columns
  std::uint32_t timely_key_ = 0;

  std::vector<sim::Id> next_ids_;
  std::vector<numeric::limb_t> next_nums_;
  std::vector<unsigned char> next_is_exact_;
  std::map<sim::Id, numeric::Rational> next_overrides_;

  // --- pooled per-step scratch (reused round over round) -------------
  std::vector<Vote> votes_;
  /// All-exact copies of votes on another instance's grid; a list,
  /// which allocates nothing while empty and never moves an element.
  std::list<sim::RanksMsg> foreign_;
  std::vector<int> link_seen_;  ///< stamped with step_serial_, never cleared
  int step_serial_ = 0;
  std::vector<sim::Id> timely_flat_;  ///< pooled copy of the timely set
  /// The ballot's exact entries (position, value); sized n per step.
  std::vector<std::pair<std::uint32_t, const numeric::Rational*>> exact_hits_;
  std::vector<numeric::Rational> exact_ballot_;
  FixedBallotKernel kernel_;
};

}  // namespace byzrename::core

#endif  // BYZRENAME_CORE_VOTING_KERNEL_H
