// Fixed-width rank kernel: boundary behavior of the numeric layer and
// the oracle cross-check contract — the fixed kernel must be observably
// indistinguishable from the exact-Rational oracle on every output a
// run exposes (verdicts, names, per-round metrics JSONL, audit records,
// campaign aggregates), across adversaries, fault plans, and thread
// counts. The suite carries the "kernel" ctest label; the ASan and TSan
// CI jobs both run it.

#include "numeric/fixed_rank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "aa/byzantine_aa.h"
#include "adversary/adversary.h"
#include "core/harness.h"
#include "core/op_renaming.h"
#include "core/params.h"
#include "core/rank_approx.h"
#include "core/voting_kernel.h"
#include "exp/campaign.h"
#include "exp/spec_parse.h"
#include "obs/complexity_audit.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "sim/codec.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/payload.h"
#include "sim/rng.h"

namespace byzrename {
namespace {

using numeric::BigInt;
using numeric::FixedConvert;
using numeric::FixedSpec;
using numeric::kFixedRankLimbs;
using numeric::limb_t;
using numeric::Rational;

// ---------------------------------------------------------------------------
// FixedSpec derivation (the §IV-D bit budget made concrete)

TEST(FixedSpec, DerivesCommonDenominatorFromBitBudget) {
  // n=64, t=21: c = floor((64 - 42 - 1)/21) + 1 = 2, I = 3*ceil(lg 21)+3
  // = 18, S = 3(n+t) * c^I = 255 * 2^18.
  const int iterations = core::default_approximation_iterations(21);
  ASSERT_EQ(iterations, 18);
  const FixedSpec spec = numeric::derive_fixed_spec(64, 21, iterations);
  ASSERT_TRUE(spec.ok);
  EXPECT_EQ(spec.select_count, 2);
  EXPECT_EQ(spec.width, 2);
  EXPECT_EQ(spec.scale_bits, 26u);  // bits(255 * 2^18) = 8 + 18
  EXPECT_EQ(spec.scale[0], std::uint64_t{255} << 18);
  EXPECT_EQ(spec.scale[1], 0u);
  // delta * S = S + c^I; here 255*2^18 + 2^18 = 2^26.
  EXPECT_EQ(spec.delta_scaled[0], std::uint64_t{1} << 26);
  EXPECT_EQ(spec.delta_scaled[1], 0u);
}

TEST(FixedSpec, FaultFreeInstanceKeepsEveryValue) {
  const FixedSpec spec = numeric::derive_fixed_spec(5, 0, 0);
  ASSERT_TRUE(spec.ok);
  EXPECT_EQ(spec.select_count, 5);  // t = 0: select_t keeps all N values
}

TEST(FixedSpec, OverBudgetIterationCountDowngradesToOracle) {
  // c^I alone would exceed the limb capacity: the instance must refuse
  // the fixed path (spec.ok == false) rather than silently truncate.
  const FixedSpec spec = numeric::derive_fixed_spec(64, 21, 400);
  EXPECT_FALSE(spec.ok);
}

// ---------------------------------------------------------------------------
// Conversion boundaries: the symmetric two's-complement range edge

class FixedConvertBoundary : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = numeric::derive_fixed_spec(64, 21, core::default_approximation_iterations(21));
    ASSERT_TRUE(spec_.ok);
  }
  FixedSpec spec_;
};

TEST_F(FixedConvertBoundary, GridValuesRoundTripExactly) {
  const sim::SystemParams params{.n = 64, .t = 21};
  const Rational d = core::delta(params);
  limb_t out[kFixedRankLimbs];
  for (int position = 1; position <= 85; ++position) {
    const Rational value = Rational(position) * d;
    ASSERT_EQ(numeric::rational_to_fixed(value, spec_, out), FixedConvert::kOk);
    EXPECT_EQ(numeric::fixed_to_rational(out, spec_.width, spec_.scale_big), value);
  }
  const Rational negative = Rational(-7) * d;
  ASSERT_EQ(numeric::rational_to_fixed(negative, spec_, out), FixedConvert::kOk);
  EXPECT_EQ(numeric::fixed_to_rational(out, spec_.width, spec_.scale_big), negative);
}

TEST_F(FixedConvertBoundary, DenominatorNotDividingScaleIsOffGrid) {
  // S = 255 * 2^18 = 3*5*17 * 2^18: 7 does not divide it.
  limb_t out[kFixedRankLimbs];
  EXPECT_EQ(numeric::rational_to_fixed(Rational::of(1, 7), spec_, out),
            FixedConvert::kOffGrid);
  // A denominator larger than S itself can never divide it.
  const BigInt huge_den =
      BigInt(2) * spec_.scale_big + BigInt(1);  // odd, > S: no reduction, no division
  EXPECT_EQ(numeric::rational_to_fixed(Rational(BigInt(1), huge_den), spec_, out),
            FixedConvert::kOffGrid);
}

TEST_F(FixedConvertBoundary, OverflowTriggersExactlyAtTheSymmetricRangeEdge) {
  // Scaled magnitudes below 2^(64w-1) = 2^127 convert; 2^127 itself must
  // not (two's-complement sign headroom). Denominator = S makes the grid
  // multiplier exactly 1, so the boundary is hit with no rounding slack;
  // the numerator 2^126 + 3 shares no factor with S = 3*5*17*2^18.
  const std::uint64_t in_range_words[2] = {3, std::uint64_t{1} << 62};   // 2^126 + 3
  const std::uint64_t over_words[2] = {0, std::uint64_t{1} << 63};       // 2^127
  for (const bool negative : {false, true}) {
    const Rational in_range(BigInt::from_words64(in_range_words, 2, negative),
                            spec_.scale_big);
    ASSERT_EQ(in_range.denominator(), spec_.scale_big);  // stayed unreduced
    limb_t out[kFixedRankLimbs];
    ASSERT_EQ(numeric::rational_to_fixed(in_range, spec_, out), FixedConvert::kOk);
    EXPECT_EQ(numeric::fixed_to_rational(out, spec_.width, spec_.scale_big), in_range);

    const Rational over(BigInt::from_words64(over_words, 2, negative), spec_.scale_big);
    EXPECT_EQ(numeric::rational_to_fixed(over, spec_, out), FixedConvert::kOverflow);
  }
}

// ---------------------------------------------------------------------------
// Wire codec: a vote on the grid and its all-exact twin are one wire format

/// The width-0 twin of a vote: every entry exact.
sim::RanksMsg exact_form(const sim::RanksMsg& msg) {
  sim::RanksMsg out;
  msg.for_each_value([&out](sim::Id id, const Rational& value) { out.push_exact(id, value); });
  return out;
}

TEST(FixedRanksCodec, EncodesByteIdenticallyToClassicForm) {
  const sim::SystemParams params{.n = 10, .t = 3};
  core::FixedVotingEngine engine(params, core::RenamingOptions{},
                                 core::default_approximation_iterations(3));
  ASSERT_TRUE(engine.enabled());
  std::set<sim::Id> accepted;
  for (sim::Id id : {5, 11, 23, 42, 100, 2001}) accepted.insert(id);
  engine.assign_initial_ranks(accepted);

  const sim::PayloadRef fixed_payload = engine.encode_ranks();
  const auto& fixed = std::get<sim::RanksMsg>(*fixed_payload);
  ASSERT_EQ(fixed.width, engine.spec().width);
  ASSERT_TRUE(fixed.exacts.empty());
  const sim::RanksMsg exact = exact_form(fixed);

  const std::vector<std::uint8_t> fixed_bytes = sim::encode(*fixed_payload);
  EXPECT_EQ(fixed_bytes, sim::encode(sim::Payload{exact}));
  EXPECT_EQ(sim::encoded_bits(*fixed_payload), 8 * fixed_bytes.size());

  // decode() of those bytes yields the all-exact form, equal entry by
  // entry.
  const std::optional<sim::Payload> decoded = sim::decode(fixed_bytes);
  ASSERT_TRUE(decoded.has_value());
  const auto* round_trip = std::get_if<sim::RanksMsg>(&*decoded);
  ASSERT_NE(round_trip, nullptr);
  EXPECT_EQ(*round_trip, exact);
}

// ---------------------------------------------------------------------------
// Byzantine admission under the fixed engine

TEST(FixedVotingEngine, MalformedVoteLayoutRejected) {
  // In-memory votes that break RanksMsg's layout are rejected whole
  // rather than read out of bounds.
  const sim::SystemParams params{.n = 4, .t = 1};
  core::FixedVotingEngine engine(params, core::RenamingOptions{},
                                 core::default_approximation_iterations(1));
  ASSERT_TRUE(engine.enabled());
  std::set<sim::Id> accepted{1, 2, 3, 4};
  engine.assign_initial_ranks(accepted);
  const std::set<sim::Id> timely = accepted;
  const core::RankMap before = engine.materialize();

  const sim::PayloadRef honest = engine.encode_ranks();
  const auto& grid = std::get<sim::RanksMsg>(*honest);
  const Rational delta = core::delta(params);
  sim::RanksMsg unordered = grid;  // side list out of index order, values valid
  unordered.exacts = {{2, Rational(3) * delta}, {1, Rational(2) * delta}};
  sim::RanksMsg short_limbs = grid;  // one limb short
  short_limbs.nums.pop_back();
  sim::RanksMsg gridless = exact_form(grid);  // width 0, one entry not exact
  gridless.exacts.pop_back();

  sim::Inbox inbox;
  for (int link = 0; link < 3; ++link) inbox.push_back({link, honest});
  for (const sim::RanksMsg& bad : {unordered, short_limbs, gridless}) {
    inbox.push_back({3, sim::PayloadRef(bad)});
  }
  int rejected = 0;
  engine.step(inbox, timely, accepted, rejected);
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(engine.materialize(), before);
}

// ---------------------------------------------------------------------------
// Admission differential: the engine admits a vote iff decode_vote and
// (with validation on) is_valid_ranks accept it

/// One vote entry; `side` forces it onto the side list.
struct VoteEntry {
  sim::Id id = 0;
  Rational value;
  bool side = false;
};

/// The vote holding `entries` in the given order on `grid` (null: no
/// grid). An entry goes on the side list when marked or off the grid.
sim::RanksMsg vote_of(const FixedSpec* grid, const std::vector<VoteEntry>& entries) {
  sim::RanksMsg msg;
  if (grid != nullptr) {
    msg.width = grid->width;
    msg.scale = grid->scale;
  }
  for (const VoteEntry& entry : entries) {
    limb_t num[kFixedRankLimbs] = {};
    if (grid != nullptr && !entry.side &&
        numeric::rational_to_fixed(entry.value, *grid, num) == FixedConvert::kOk) {
      msg.ids.push_back(entry.id);
      msg.nums.insert(msg.nums.end(), num, num + grid->width);
    } else {
      msg.push_exact(entry.id, entry.value);
    }
  }
  return msg;
}

/// Votes rejected when `vote` arrives alone, on one link, at a fresh
/// engine holding the initial ranks of `timely`.
int engine_rejected(const sim::SystemParams& params, const core::RenamingOptions& options,
                    int iterations, const std::set<sim::Id>& timely, const sim::RanksMsg& vote) {
  core::FixedVotingEngine engine(params, options, iterations);
  std::set<sim::Id> accepted = timely;
  engine.assign_initial_ranks(accepted);
  sim::Inbox inbox;
  inbox.push_back({0, sim::PayloadRef(vote)});
  int rejected = 0;
  engine.step(inbox, timely, accepted, rejected);
  return rejected;
}

TEST(FixedVotingEngine, AdmissionMatchesDecodeAndIsValid) {
  for (const int n : {4, 7, 13}) {
    const int t = (n - 1) / 3;
    const sim::SystemParams params{.n = n, .t = t};
    const int iterations = core::default_approximation_iterations(t);
    const FixedSpec grid = numeric::derive_fixed_spec(n, t, iterations);
    const FixedSpec other_grid = numeric::derive_fixed_spec(n, t, iterations + 1);
    ASSERT_TRUE(grid.ok);
    ASSERT_TRUE(other_grid.ok);
    const Rational delta = core::delta(params);
    const Rational unit(BigInt(1), grid.scale_big);  // one grid step
    const Rational off = Rational::of(1, 7);         // off every grid here
    limb_t scratch[kFixedRankLimbs];
    ASSERT_EQ(numeric::rational_to_fixed(off, grid, scratch), FixedConvert::kOffGrid);

    // Timely ids 10, 20, ..., 10n at their initial ranks delta, 2 delta, ...
    std::set<sim::Id> timely;
    std::vector<VoteEntry> honest;
    for (int i = 0; i < n; ++i) {
      const auto id = static_cast<sim::Id>(10 * (i + 1));
      timely.insert(id);
      honest.push_back({id, Rational(i + 1) * delta});
    }
    const auto last = static_cast<std::size_t>(n - 1);
    const std::size_t middle = last / 2;

    std::vector<std::pair<std::string, sim::RanksMsg>> votes;
    const auto add = [&](std::string label, const FixedSpec* on, std::vector<VoteEntry> entries) {
      votes.emplace_back(std::move(label), vote_of(on, entries));
    };
    /// `honest` with entries from `from` on moved by `shift`, on the
    /// side list if `side`.
    const auto shifted = [&](std::size_t from, const Rational& shift, bool side) {
      std::vector<VoteEntry> entries = honest;
      for (std::size_t k = from; k < entries.size(); ++k) {
        entries[k].value += shift;
        entries[k].side = side;
      }
      return entries;
    };

    add("on grid", &grid, honest);
    add("on grid, whole units up", &grid, shifted(0, Rational(5), false));
    add("empty", &grid, {});
    for (const std::size_t k : {std::size_t{0}, middle, last}) {
      const std::string at = " at " + std::to_string(k);
      std::vector<VoteEntry> entries = honest;
      entries[k].side = true;
      add("side entry on the grid" + at, &grid, entries);
      entries[k].value = honest[k].value + off;
      add("side entry above" + at, &grid, entries);
      entries[k].value = honest[k].value - off;
      add("side entry below" + at, &grid, entries);
      entries[k].value = honest[k].value - unit;
      add("side entry one step low" + at, &grid, entries);
      if (k > 0) {
        add("gap delta - 1/S on the grid" + at, &grid, shifted(k, -unit, false));
        add("gap delta - 1/S off the grid" + at, &grid, [&] {
          std::vector<VoteEntry> moved = shifted(0, off, true);
          for (std::size_t j = k; j < moved.size(); ++j) moved[j].value -= unit;
          return moved;
        }());
        entries = honest;
        entries[k - 1].side = true;
        entries[k - 1].value += unit;
        add("side entry then grid entry 1/S close" + at, &grid, entries);
      }
      entries = honest;
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(k));
      add("missing timely id" + at, &grid, entries);
      entries = honest;
      ++entries[k].id;
      add("non-timely id in place of a timely one" + at, &grid, entries);
    }
    add("gap delta off the grid", &grid, shifted(0, off, true));
    add("gap delta half off the grid", &grid, shifted(middle, off, true));

    std::vector<VoteEntry> unsorted = honest;
    std::swap(unsorted[0], unsorted[1]);
    add("unsorted ids", &grid, unsorted);
    unsorted[0].side = true;
    add("unsorted ids, side entry", &grid, unsorted);
    std::vector<VoteEntry> duplicate = honest;
    duplicate[1].id = duplicate[0].id;
    add("duplicate id", &grid, duplicate);
    duplicate[1].side = true;
    add("duplicate id, side entry", &grid, duplicate);

    // Entry-count edge: timely ids plus non-timely ones (any value).
    for (const int count : {n + t, n + t + 1}) {
      for (const bool side : {false, true}) {
        std::vector<VoteEntry> entries = honest;
        for (int extra = 0; entries.size() < static_cast<std::size_t>(count); ++extra) {
          entries.push_back({static_cast<sim::Id>(10 * n + 1 + extra), Rational(-100), side});
        }
        std::sort(entries.begin(), entries.end(),
                  [](const VoteEntry& a, const VoteEntry& b) { return a.id < b.id; });
        add(std::to_string(count) + " entries" + (side ? ", side extras" : ""), &grid, entries);
      }
    }
    std::vector<VoteEntry> interleaved = honest;
    interleaved.insert(interleaved.begin() + 1, VoteEntry{15, Rational(-3) + off});
    add("non-timely entry out of rank order", &grid, interleaved);

    add("width 0", nullptr, honest);
    add("width 0, crowded", nullptr, shifted(last, -unit, false));
    add("width 0, empty", nullptr, {});
    add("another grid", &other_grid, honest);
    add("another grid, crowded", &other_grid, shifted(middle, -unit, false));
    add("another grid, side entry", &other_grid, shifted(last, off, true));

    for (const bool validate : {true, false}) {
      core::RenamingOptions options;
      options.validate_votes = validate;
      int admitted = 0;
      for (const auto& [label, vote] : votes) {
        SCOPED_TRACE("n=" + std::to_string(n) + (validate ? "" : " unvalidated") + ": " + label);
        core::RankMap decoded;
        const bool accepts = core::decode_vote(vote, params, decoded) &&
                             (!validate || core::is_valid_ranks(timely, decoded, delta));
        EXPECT_EQ(engine_rejected(params, options, iterations, timely, vote), accepts ? 0 : 1);
        admitted += accepts ? 1 : 0;
      }
      // Both outcomes occur.
      EXPECT_GT(admitted, 0);
      EXPECT_LT(admitted, static_cast<int>(votes.size()));
    }
  }
}

TEST(FixedVotingEngine, OversizedRankEncodingStillRejected) {
  // The last timely rank, carried exactly: 2^e + 2^-d encodes in
  // 2d + e + 4 bits, so e = 10 and 11 with d = 2041 sit at the budget
  // and one bit past it; 2^-4160 is denominator inflation far past it.
  const sim::SystemParams params{.n = 4, .t = 1};
  const int iterations = core::default_approximation_iterations(1);
  const FixedSpec grid = numeric::derive_fixed_spec(4, 1, iterations);
  const Rational delta = core::delta(params);
  const std::set<sim::Id> timely{1, 2, 3, 4};
  const auto sized = [](std::size_t e, std::size_t d) {
    return Rational((BigInt(1) << (d + e)) + BigInt(1), BigInt(1) << d);
  };
  ASSERT_EQ(sized(10, 2041).encoded_bits(), core::kMaxRankBits);
  ASSERT_EQ(sized(11, 2041).encoded_bits(), core::kMaxRankBits + 1);
  const std::pair<Rational, bool> cases[] = {{sized(10, 2041), true},
                                             {sized(11, 2041), false},
                                             {Rational(BigInt(1), BigInt(1) << 4160), false}};
  for (const auto& [value, admitted] : cases) {
    std::vector<VoteEntry> entries;
    for (sim::Id id = 1; id <= 3; ++id) entries.push_back({id, Rational(id) * delta});
    entries.push_back({4, value});
    const sim::RanksMsg vote = vote_of(&grid, entries);
    ASSERT_EQ(vote.exacts.size(), 1u);
    core::RankMap decoded;
    EXPECT_EQ(core::decode_vote(vote, params, decoded), admitted) << value.encoded_bits();
    EXPECT_EQ(engine_rejected(params, {}, iterations, timely, vote), admitted ? 0 : 1)
        << value.encoded_bits();
  }
}

TEST(FixedVotingEngine, OverlongFixedVoteRejected) {
  // Lemma IV.3's cap: n + t entries are admitted, one more is rejected
  // whole, by the engine and by decode_vote alike.
  const sim::SystemParams params{.n = 4, .t = 1};
  const int iterations = core::default_approximation_iterations(1);
  const FixedSpec grid = numeric::derive_fixed_spec(4, 1, iterations);
  const Rational delta = core::delta(params);
  const std::set<sim::Id> timely{1, 2, 3, 4};
  ASSERT_EQ(core::max_vote_entries(params), 5);
  for (const int count : {5, 6}) {
    std::vector<VoteEntry> entries;
    for (sim::Id id = 1; id <= 4; ++id) entries.push_back({id, Rational(id) * delta});
    for (sim::Id id = 1000; entries.size() < static_cast<std::size_t>(count); ++id) {
      entries.push_back({id, Rational(0)});
    }
    const sim::RanksMsg vote = vote_of(&grid, entries);
    ASSERT_TRUE(vote.exacts.empty());
    core::RankMap decoded;
    EXPECT_EQ(core::decode_vote(vote, params, decoded), count == 5);
    EXPECT_EQ(engine_rejected(params, {}, iterations, timely, vote), count == 5 ? 0 : 1);
  }
}

// ---------------------------------------------------------------------------
// Exact lane differential: Byzantine votes off the grid, past its range,
// without a grid or on another instance's grid drive the engine's exact
// oracle lane, remainder overrides and foreign-grid admission; every
// step must match decode_vote + is_valid_ranks + approximate.

/// The oracle's view of one voting step (OpRenamingProcess's exact
/// kernel): each payload is read back from its wire bytes, at most one
/// vote per link is accepted, and only an accepted vote burns the link.
void oracle_step(const sim::SystemParams& params, const std::set<sim::Id>& timely,
                 const sim::Inbox& inbox, core::RankMap& ranks, std::set<sim::Id>& accepted,
                 int& rejected) {
  std::map<sim::LinkIndex, core::RankMap> per_link;
  for (const sim::Delivery& d : inbox) {
    const std::optional<sim::Payload> wire = sim::decode(sim::encode(*d.payload));
    ASSERT_TRUE(wire.has_value());
    const auto* msg = std::get_if<sim::RanksMsg>(&*wire);
    if (msg == nullptr) continue;
    if (per_link.contains(d.link)) {
      ++rejected;
      continue;
    }
    core::RankMap vote;
    if (!core::decode_vote(*msg, params, vote) ||
        !core::is_valid_ranks(timely, vote, core::delta(params))) {
      ++rejected;
      continue;
    }
    per_link.emplace(d.link, std::move(vote));
  }
  std::vector<core::RankMap> votes;
  for (auto& [link, vote] : per_link) votes.push_back(std::move(vote));
  ranks = core::approximate(params, accepted, ranks, votes).new_ranks;
}

TEST(FixedVotingEngine, ExactLaneMatchesTheOracleStepByStep) {
  for (const int n : {4, 7, 13}) {
    const int t = (n - 1) / 3;
    const sim::SystemParams params{.n = n, .t = t};
    const int iterations = core::default_approximation_iterations(t);
    const FixedSpec other_grid = numeric::derive_fixed_spec(n, t, iterations + 1);
    ASSERT_TRUE(other_grid.ok);
    const Rational delta = core::delta(params);
    int max_overrides = 0;  // over every seed at this n
    int rejections = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      sim::Rng rng(seed * 7919 + static_cast<std::uint64_t>(n));
      core::FixedVotingEngine engine(params, core::RenamingOptions{}, iterations);
      ASSERT_TRUE(engine.enabled());
      const FixedSpec& grid = engine.spec();
      std::array<limb_t, kFixedRankLimbs> top{};  // 2^(64w - 1) - 1
      for (int i = 0; i < grid.width; ++i) top[static_cast<std::size_t>(i)] = ~limb_t{0};
      top[static_cast<std::size_t>(grid.width - 1)] >>= 1;
      const Rational past_top =
          numeric::fixed_to_rational(top.data(), grid.width, grid.scale_big) + Rational(1);

      std::set<sim::Id> accepted;
      for (int i = 0; i < n; ++i) accepted.insert(100 + 10 * i + static_cast<sim::Id>(seed));
      const std::set<sim::Id> timely = accepted;
      engine.assign_initial_ranks(accepted);
      core::RankMap oracle_ranks = engine.materialize();
      std::set<sim::Id> oracle_accepted = accepted;
      int rejected = 0;
      int oracle_rejected = 0;

      // One face of the current ranks, shifted off the grid (kinds 1, 6
      // and 7) or by whole grid units (2 and 3). Kind 0 is the engine's
      // own vote, kind 3 puts its last entry past the top of the range,
      // kind 4 has no grid, kind 5 sits on another grid, and kind 7
      // crowds its last entry to 1/7 above the one before (invalid).
      const auto face = [&](std::int64_t kind) -> sim::PayloadRef {
        if (kind == 0) return engine.encode_ranks();
        const core::RankMap base = engine.materialize();
        core::VoteBuilder vote(kind == 4 ? nullptr : kind == 5 ? &other_grid : &grid, delta);
        const Rational unit(BigInt(rng.uniform(1, 5)), grid.scale_big);
        const Rational shift = kind == 1 || kind == 7 ? Rational::of(1, 7)
                               : kind == 2 || kind == 3 ? unit
                               : kind == 6              ? Rational::of(-3, 7)
                                                        : Rational(0);
        Rational previous;
        for (const auto& [id, rank] : base) {
          Rational value = rank + shift;
          if (id == base.rbegin()->first && kind == 3) value = past_top;
          if (id == base.rbegin()->first && kind == 7) value = previous + Rational::of(1, 7);
          vote.push(id, value);
          previous = value;
        }
        return vote.wrap();
      };

      for (int step = 0; step < iterations; ++step) {
        // Links below n - t send one valid face each, which keeps every
        // id at n - t votes or more. The last t links may stay silent
        // (padded with the local rank), send an invalid vote first (it
        // does not burn the link), send a crowded one, or send twice.
        // At step 0 every link sends one face with every entry but the
        // last on the grid (own, unit-shifted and, on odd seeds, past
        // the top), so both limb lanes, fused and not, meet sums that c
        // does not divide.
        const auto valid_kind = [&]() -> std::int64_t {
          if (step > 0) return rng.uniform(0, 6);
          const std::int64_t kind = rng.uniform(0, seed % 2 == 0 ? 1 : 2);
          return kind == 0 ? 0 : kind + 1;
        };
        sim::Inbox inbox;
        for (int link = 0; link < n; ++link) {
          if (link < n - t || step == 0) {
            inbox.push_back({link, face(valid_kind())});
            continue;
          }
          if (rng.uniform(0, 5) == 0) continue;
          if (rng.uniform(0, 3) == 0) {
            core::VoteBuilder missing(&grid, delta);
            missing.push_deltas(*timely.begin(), 1);
            inbox.push_back({link, missing.wrap()});
          }
          inbox.push_back({link, face(rng.uniform(0, 7))});
          if (rng.uniform(0, 3) == 0) inbox.push_back({link, face(rng.uniform(0, 7))});
        }
        engine.step(inbox, timely, accepted, rejected);
        oracle_step(params, timely, inbox, oracle_ranks, oracle_accepted, oracle_rejected);
        ASSERT_EQ(engine.materialize(), oracle_ranks) << "step " << step;
        ASSERT_EQ(accepted, oracle_accepted) << "step " << step;
        ASSERT_EQ(rejected, oracle_rejected) << "step " << step;
        EXPECT_EQ(sim::encode(*engine.encode_ranks()),
                  sim::encode(core::encode_vote(engine.materialize())))
            << "step " << step;
        max_overrides = std::max(max_overrides, engine.override_count());
      }
      rejections += rejected;
    }
    EXPECT_GT(max_overrides, 0) << "n=" << n;
    EXPECT_GT(rejections, 0) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// ViewCache: a step loaded from the cache is the step an uncached engine
// computes, whatever the permutation of link labels

TEST(ViewCache, MatchesUncachedEngine) {
  constexpr std::size_t kEngines = 3;
  for (const int n : {4, 7, 13}) {
    for (const bool validate : {true, false}) {
      const int t = (n - 1) / 3;
      const sim::SystemParams params{.n = n, .t = t};
      const int iterations = core::default_approximation_iterations(t);
      const FixedSpec other_grid = numeric::derive_fixed_spec(n, t, iterations + 1);
      ASSERT_TRUE(other_grid.ok);
      const Rational delta = core::delta(params);
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE("n=" + std::to_string(n) + " validate=" + std::to_string(validate) +
                     " seed=" + std::to_string(seed));
        sim::Rng rng(seed * 104729 + static_cast<std::uint64_t>(2 * n + (validate ? 1 : 0)));
        core::ViewCache cache;
        core::RenamingOptions plain_options;
        plain_options.validate_votes = validate;
        core::RenamingOptions cached_options = plain_options;
        cached_options.view_cache = &cache;

        std::set<sim::Id> initial;
        for (int i = 0; i < n; ++i) initial.insert(100 + 10 * i + static_cast<sim::Id>(seed));
        const std::set<sim::Id> timely = initial;
        std::vector<core::FixedVotingEngine> plain;
        std::vector<core::FixedVotingEngine> cached;
        std::vector<std::set<sim::Id>> plain_accepted(kEngines, initial);
        std::vector<std::set<sim::Id>> cached_accepted(kEngines, initial);
        std::vector<int> plain_rejected(kEngines, 0);
        std::vector<int> cached_rejected(kEngines, 0);
        for (std::size_t k = 0; k < kEngines; ++k) {
          plain.emplace_back(params, plain_options, iterations);
          cached.emplace_back(params, cached_options, iterations);
          ASSERT_FALSE(plain[k].cached());
          ASSERT_TRUE(cached[k].cached());
          plain[k].assign_initial_ranks(initial);
          cached[k].assign_initial_ranks(initial);
        }
        const FixedSpec& grid = cached[0].spec();
        std::array<limb_t, kFixedRankLimbs> top{};  // 2^(64w - 1) - 1
        for (int i = 0; i < grid.width; ++i) top[static_cast<std::size_t>(i)] = ~limb_t{0};
        top[static_cast<std::size_t>(grid.width - 1)] >>= 1;
        const Rational past_top =
            numeric::fixed_to_rational(top.data(), grid.width, grid.scale_big) + Rational(1);

        // Kind 0 is an engine's own vote; 1 and 6 shift off the grid, 2
        // and 3 by grid units (3 puts its last entry past the top), 4
        // has no grid, 5 sits on another grid, 7 crowds its last entry
        // (invalid when validating), 8 is unsorted and 9 over-long.
        const auto face = [&](std::int64_t kind) -> sim::PayloadRef {
          if (kind == 0) {
            return cached[static_cast<std::size_t>(rng.uniform(0, kEngines - 1))].encode_ranks();
          }
          const core::RankMap base = cached[0].materialize();
          core::VoteBuilder vote(kind == 4 ? nullptr : kind == 5 ? &other_grid : &grid, delta);
          const Rational unit(BigInt(rng.uniform(1, 5)), grid.scale_big);
          const Rational shift = kind == 1 || kind == 7 ? Rational::of(1, 7)
                                 : kind == 2 || kind == 3 ? unit
                                 : kind == 6              ? Rational::of(-3, 7)
                                                          : Rational(0);
          Rational previous;
          for (const auto& [id, rank] : base) {
            Rational value = rank + shift;
            if (id == base.rbegin()->first && kind == 3) value = past_top;
            if (id == base.rbegin()->first && kind == 7) value = previous + Rational::of(1, 7);
            vote.push(id, value);
            previous = value;
          }
          sim::PayloadRef built = vote.wrap();
          if (kind < 8) return built;
          sim::RanksMsg broken = std::get<sim::RanksMsg>(*built);
          if (kind == 8 && broken.ids.size() >= 2) {
            std::swap(broken.ids[0], broken.ids[1]);
          } else {
            while (broken.ids.size() <= static_cast<std::size_t>(n + t)) {
              broken.ids.push_back(broken.ids.back() + 1000);
              broken.nums.insert(broken.nums.end(), static_cast<std::size_t>(broken.width), 0);
            }
          }
          return sim::PayloadRef(std::move(broken));
        };

        int shared_successors = 0;
        for (int step = 0; step < iterations + 2; ++step) {
          // One run per link: links below n - t send one vote (mostly an
          // engine's own), the last t may stay silent, send the same
          // vote twice, or send a malformed or invalid vote first.
          std::vector<std::vector<sim::PayloadRef>> runs(static_cast<std::size_t>(n));
          for (int link = 0; link < n; ++link) {
            auto& run = runs[static_cast<std::size_t>(link)];
            if (link < n - t) {
              run.push_back(face(rng.uniform(0, 3) == 0 ? rng.uniform(1, 6) : 0));
              continue;
            }
            const std::int64_t shape = rng.uniform(0, 4);
            if (shape == 0) continue;
            if (shape == 1) run.push_back(face(rng.uniform(7, 9)));
            run.push_back(face(rng.uniform(0, 7)));
            if (shape == 2) run.push_back(run.back());
            if (shape == 3) run.push_back(face(rng.uniform(0, 9)));
          }

          std::vector<const sim::Payload*> before(kEngines);
          std::vector<bool> varied(kEngines, false);
          for (std::size_t k = 0; k < kEngines; ++k) {
            before[k] = &*cached[k].encode_ranks();
            std::vector<std::vector<sim::PayloadRef>> mine = runs;
            if (k > 0 && rng.uniform(0, 2) == 0) {
              // A view of its own: one link dropped or duplicated.
              varied[k] = true;
              auto& run = mine[static_cast<std::size_t>(rng.uniform(0, n - 1))];
              if (run.empty() || rng.uniform(0, 1) == 0) {
                run.clear();
              } else {
                run.push_back(run.front());
              }
            }
            // Relabel the links, then deliver in link order, as the
            // network does.
            std::vector<int> label(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i) label[static_cast<std::size_t>(i)] = i;
            std::shuffle(label.begin(), label.end(), rng.engine());
            std::vector<const std::vector<sim::PayloadRef>*> by_link(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i) {
              by_link[static_cast<std::size_t>(label[static_cast<std::size_t>(i)])] =
                  &mine[static_cast<std::size_t>(i)];
            }
            sim::Inbox inbox;
            for (int link = 0; link < n; ++link) {
              for (const sim::PayloadRef& vote : *by_link[static_cast<std::size_t>(link)]) {
                inbox.push_back({link, vote});
              }
            }

            plain[k].step(inbox, timely, plain_accepted[k], plain_rejected[k]);
            cached[k].step(inbox, timely, cached_accepted[k], cached_rejected[k]);
            SCOPED_TRACE("step " + std::to_string(step) + " engine " + std::to_string(k));
            ASSERT_EQ(cached[k].materialize(), plain[k].materialize());
            ASSERT_EQ(cached_accepted[k], plain_accepted[k]);
            ASSERT_EQ(cached_rejected[k], plain_rejected[k]);
            ASSERT_EQ(std::get<sim::RanksMsg>(*cached[k].encode_ranks()),
                      std::get<sim::RanksMsg>(*plain[k].encode_ranks()));
            ASSERT_EQ(sim::encode(*cached[k].encode_ranks()),
                      sim::encode(*plain[k].encode_ranks()));
          }
          // Engines that started equal and saw the same runs end on one
          // vote object.
          for (std::size_t k = 1; k < kEngines; ++k) {
            if (varied[k] || before[k] != before[0]) continue;
            EXPECT_EQ(&*cached[k].encode_ranks(), &*cached[0].encode_ranks());
            ++shared_successors;
          }
        }
        EXPECT_GT(shared_successors, 0);
        EXPECT_LT(cache.computed(), cache.lookups());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// VoteBuilder: Byzantine faces keep an entry on the grid exactly when it fits

TEST(VoteBuilder, FacesMatchTheirExactValuesOnAndOffTheGrid) {
  const sim::SystemParams params{.n = 13, .t = 4};
  const FixedSpec spec =
      numeric::derive_fixed_spec(13, 4, core::default_approximation_iterations(4));
  ASSERT_TRUE(spec.ok);
  const Rational delta = core::delta(params);
  std::array<limb_t, kFixedRankLimbs> top{};  // 2^(64w - 1) - 1
  for (int i = 0; i < spec.width; ++i) top[static_cast<std::size_t>(i)] = ~limb_t{0};
  top[static_cast<std::size_t>(spec.width - 1)] >>= 1;
  const Rational top_value = numeric::fixed_to_rational(top.data(), spec.width, spec.scale_big);
  const Rational off_grid = Rational::of(1, 7 * 11 * 13);

  struct Case {
    const char* name;
    bool fixed;
    std::function<void(core::VoteBuilder&, const core::RankRef&)> push;
    core::RankMap expected;
  };
  const core::RankRef low{3, nullptr, nullptr};
  std::array<limb_t, kFixedRankLimbs> five_deltas{};
  (void)numeric::limb_mul_1(five_deltas.data(), spec.delta_scaled.data(), spec.width, 5);
  const core::RankRef base{9, five_deltas.data(), nullptr};
  const core::RankRef edge{9, top.data(), nullptr};
  const std::vector<Case> cases = {
      {"delta multiples", true,
       [&](core::VoteBuilder& b, const core::RankRef&) {
         b.push_deltas(low.id, 2);
         b.push_deltas(base.id, -7);
       },
       {{3, Rational(2) * delta}, {9, Rational(-7) * delta}}},
      {"shifted rank", true,
       [&](core::VoteBuilder& b, const core::RankRef& rank) { b.push(rank, 3, -1'000'000); },
       {{9, Rational(8) * delta - Rational(1'000'000)}}},
      {"off-grid value", false,
       [&](core::VoteBuilder& b, const core::RankRef& rank) {
         b.push_deltas(low.id, 1);
         b.push(rank.id, off_grid);
       },
       {{3, delta}, {9, off_grid}}},
      {"past the top of the range", false,
       [&](core::VoteBuilder& b, const core::RankRef&) { b.push(edge, 0, 1); },
       {{9, top_value + Rational(1)}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    core::VoteBuilder builder(&spec, delta);
    c.push(builder, base);
    const sim::PayloadRef face = builder.wrap();
    EXPECT_EQ(std::get<sim::RanksMsg>(*face).exacts.empty(), c.fixed);
    const sim::Payload exact = core::encode_vote(c.expected);
    EXPECT_EQ(sim::encode(*face), sim::encode(exact));
    EXPECT_EQ(face.encoded_bits(), sim::encoded_bits(exact));

    // Without a grid (exact kernel) the same pushes build the all-exact form.
    if (c.fixed) {
      core::VoteBuilder gridless(nullptr, delta);
      const Rational base_value = Rational(5) * delta;
      const core::RankRef exact_base{9, nullptr, &base_value};
      c.push(gridless, exact_base);
      const sim::PayloadRef gridless_face = gridless.wrap();
      EXPECT_EQ(std::get<sim::RanksMsg>(*gridless_face).width, 0);
      EXPECT_EQ(sim::encode(*gridless_face), sim::encode(exact));
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle cross-check: fixed vs exact, byte-compared on every output

struct DeepRun {
  core::ScenarioResult result;
  std::string metrics_jsonl;
  std::string audit_jsonl;
};

DeepRun run_deep(core::ScenarioConfig config) {
  obs::MetricsSink sink;
  obs::ComplexityAuditor auditor;
  config.observers = {&sink, &auditor};
  DeepRun run;
  run.result = core::run_scenario(config);
  std::ostringstream metrics;
  sink.write_metrics_jsonl(metrics);
  run.metrics_jsonl = metrics.str();
  std::ostringstream audit;
  auditor.write_audit_jsonl(audit);
  run.audit_jsonl = audit.str();
  return run;
}

void expect_kernels_identical(core::ScenarioConfig config) {
  config.options.rank_kernel = core::RankKernel::kFixed;
  const DeepRun fixed = run_deep(config);
  config.options.rank_kernel = core::RankKernel::kExact;
  const DeepRun exact = run_deep(config);

  SCOPED_TRACE("adversary=" + config.adversary + " n=" + std::to_string(config.params.n));
  EXPECT_EQ(fixed.result.report.all_ok(), exact.result.report.all_ok());
  EXPECT_EQ(fixed.result.max_accepted, exact.result.max_accepted);
  EXPECT_EQ(fixed.result.min_accepted, exact.result.min_accepted);
  EXPECT_EQ(fixed.result.total_rejected, exact.result.total_rejected);
  ASSERT_EQ(fixed.result.named.size(), exact.result.named.size());
  for (std::size_t i = 0; i < fixed.result.named.size(); ++i) {
    EXPECT_EQ(fixed.result.named[i].original_id, exact.result.named[i].original_id);
    EXPECT_EQ(fixed.result.named[i].new_name, exact.result.named[i].new_name);
    EXPECT_EQ(fixed.result.named[i].decided_round, exact.result.named[i].decided_round);
  }
  // The strong form: per-round metrics timeseries and the complexity
  // audit verdict are byte-identical documents.
  EXPECT_EQ(fixed.metrics_jsonl, exact.metrics_jsonl);
  EXPECT_EQ(fixed.audit_jsonl, exact.audit_jsonl);
}

core::ScenarioConfig op_config(int n, const std::string& adversary, std::uint64_t seed) {
  core::ScenarioConfig config;
  config.params = {.n = n, .t = (n - 1) / 3};
  config.adversary = adversary;
  config.seed = seed;
  return config;
}

TEST(OracleCrossCheck, EveryAdversaryByteIdenticalAtSmallN) {
  for (const std::string& adversary : adversary::adversary_names()) {
    for (const int n : {13, 16}) {
      expect_kernels_identical(op_config(n, adversary, 77));
    }
  }
}

TEST(OracleCrossCheck, SplitWorldByteIdenticalAtN64) {
  expect_kernels_identical(op_config(64, "split", 21));
}

TEST(OracleCrossCheck, HybridByteIdenticalAtN64) {
  expect_kernels_identical(op_config(64, "hybrid", 21));
}

TEST(OracleCrossCheck, ChaosByteIdenticalAtN64) {
  expect_kernels_identical(op_config(64, "chaos", 21));
}

TEST(OracleCrossCheck, FaultPlansByteIdentical) {
  const char* plans[] = {
      "drop:0.2",
      "dup:0.5+delay:1.0x2",
      "crash:2@3..5",
      "restart:4@5,scramble",
      "forge:3x0.5@2..4",
  };
  for (const char* plan : plans) {
    for (const char* adversary : {"silent", "split"}) {
      core::ScenarioConfig config = op_config(13, adversary, 5);
      config.fault_plan = sim::parse_fault_plan(plan);
      config.extra_rounds = 8;  // injected faults may defer decisions
      SCOPED_TRACE(std::string("plan=") + plan);
      expect_kernels_identical(config);
    }
  }
}

TEST(OracleCrossCheck, CampaignsAgreeAcrossKernelsAndThreadCounts) {
  const auto run = [](const char* kernel, int threads) {
    const exp::CampaignSpec spec = exp::parse_campaign_spec(
        std::string("nt=13:4,16:5;adversary=split,asymflood,random;reps=2;seed=9;kernel=") +
        kernel);
    exp::CampaignOptions options;
    options.threads = threads;
    return exp::run_campaign(spec, options);
  };
  const exp::CampaignResult reference = run("exact", 1);
  for (const char* kernel : {"fixed", "exact"}) {
    for (const int threads : {1, 8}) {
      if (std::string(kernel) == "exact" && threads == 1) continue;
      const exp::CampaignResult other = run(kernel, threads);
      SCOPED_TRACE(std::string("kernel=") + kernel + " threads=" + std::to_string(threads));
      ASSERT_EQ(other.runs.size(), reference.runs.size());
      for (std::size_t i = 0; i < reference.runs.size(); ++i) {
        const exp::RunRecord& a = reference.runs[i];
        const exp::RunRecord& b = other.runs[i];
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.ok, b.ok);
        EXPECT_EQ(a.terminated, b.terminated);
        EXPECT_EQ(a.rounds, b.rounds);
        EXPECT_EQ(a.max_name, b.max_name);
        EXPECT_EQ(a.messages, b.messages);
        EXPECT_EQ(a.bits, b.bits);
        EXPECT_EQ(a.correct_messages, b.correct_messages);
        EXPECT_EQ(a.correct_bits, b.correct_bits);
        EXPECT_EQ(a.max_message_bits, b.max_message_bits);
        EXPECT_EQ(a.max_correct_message_bits, b.max_correct_message_bits);
        EXPECT_EQ(a.min_accepted, b.min_accepted);
        EXPECT_EQ(a.max_accepted, b.max_accepted);
        EXPECT_EQ(a.rejected_votes, b.rejected_votes);
        EXPECT_EQ(a.violation_classes, b.violation_classes);
      }
    }
  }
}

TEST(CheckKernel, LockstepShadowAgreesOnAdversarySweep) {
  // kCheck runs the fixed engine with an exact shadow and throws
  // std::logic_error on the first divergence — a clean all_ok run IS
  // the assertion.
  for (const std::string& adversary : adversary::adversary_names()) {
    core::ScenarioConfig config = op_config(13, adversary, 31);
    config.options.rank_kernel = core::RankKernel::kCheck;
    const core::ScenarioResult result = core::run_scenario(config);
    EXPECT_TRUE(result.run.terminated) << adversary;
  }
}

TEST(CheckKernel, LockstepShadowAgreesUnderFaultPlans) {
  // Fault plans give processes views of their own (a dropped, doubled
  // or late vote, a rebuilt process), so cached steps split into many
  // classes; kCheck's exact shadow checks every one of them. At seed 31
  // the scrambled restart resumes past round 4, so that process votes
  // with no initial ranks.
  const char* plans[] = {
      "dup:0.2",          "drop:0.1",          "delay:0.3x2",          "crash:2@6..8",
      "forge:3x0.5@5..8", "restart:1@6,reset", "restart:1@7,scramble",
  };
  for (const int n : {16, 22}) {
    for (const char* plan : plans) {
      for (const char* adversary : {"silent", "split"}) {
        core::ScenarioConfig config = op_config(n, adversary, 31);
        config.options.rank_kernel = core::RankKernel::kCheck;
        config.fault_plan = sim::parse_fault_plan(plan);
        config.extra_rounds = 8;  // injected faults may defer decisions
        const core::ScenarioResult result = core::run_scenario(config);
        EXPECT_TRUE(result.run.terminated)
            << "n=" << n << " plan=" << plan << " adversary=" << adversary;
      }
    }
  }
  for (const char* adversary : {"silent", "split"}) {
    core::ScenarioConfig config = op_config(64, adversary, 31);
    config.options.rank_kernel = core::RankKernel::kCheck;
    EXPECT_TRUE(core::run_scenario(config).report.all_ok()) << adversary;
  }
}

// ---------------------------------------------------------------------------
// View sharing inside run_scenario

/// Voting steps the instance's ViewCache computed in each voting round,
/// read from correct process 0 after every round.
std::vector<std::uint64_t> computed_per_voting_round(core::ScenarioConfig config) {
  std::vector<std::uint64_t> per_round;
  std::uint64_t seen = 0;
  obs::RoundProbe probe([&](sim::Round round, const sim::Network& network) {
    if (round <= 4) return;
    const auto* process = dynamic_cast<const core::OpRenamingProcess*>(&network.behavior(0));
    if (process == nullptr || process->view_cache() == nullptr) {
      per_round.push_back(~std::uint64_t{0});  // no cache attached
      return;
    }
    per_round.push_back(process->view_cache()->computed() - seen);
    seen = process->view_cache()->computed();
  });
  config.observers.push_back(&probe);
  EXPECT_TRUE(core::run_scenario(config).report.all_ok());
  return per_round;
}

TEST(ViewCache, EqualViewsShareOneStepPerRound) {
  // N=64, t=21, 18 voting rounds. Without view sharing each round
  // computes 64 steps under split (43 correct processes and the 21
  // inner processes of the Byzantine team) and 43 under silent.
  //  - split: the first round has three views: correct processes that
  //    got the low face, those that got the high face, and the inner
  //    processes, which get no faces. After it, the inner processes'
  //    view recurs every round, because the views they read stop
  //    moving; the two faced views name new face objects every round.
  //  - silent: every correct process has one view, and it recurs every
  //    round, because averaging equal ranks keeps them.
  const std::vector<std::uint64_t> split = computed_per_voting_round(op_config(64, "split", 21));
  const std::vector<std::uint64_t> silent =
      computed_per_voting_round(op_config(64, "silent", 21));
  std::vector<std::uint64_t> expected_split(18, 2);
  expected_split[0] = 3;
  std::vector<std::uint64_t> expected_silent(18, 0);
  expected_silent[0] = 1;
  EXPECT_EQ(split, expected_split);
  EXPECT_EQ(silent, expected_silent);
}

// ---------------------------------------------------------------------------
// AA substrate cross-check, including off-grid Byzantine values

TEST(ByzantineAACrossCheck, OffGridInboxKeepsKernelsInLockstep) {
  const sim::SystemParams params{.n = 7, .t = 2};
  const int rounds = 5;
  aa::ByzantineAAProcess fixed(params, Rational::of(1, 3), rounds, core::RankKernel::kFixed);
  aa::ByzantineAAProcess exact(params, Rational::of(1, 3), rounds, core::RankKernel::kExact);
  aa::ByzantineAAProcess check(params, Rational::of(1, 3), rounds, core::RankKernel::kCheck);
  ASSERT_EQ(fixed.kernel(), core::RankKernel::kFixed);

  // Off-grid fractions (1/7, 1/11) mixed with extremes: the fixed lane
  // must detour through the exact oracle and land on the same value.
  sim::Inbox inbox;
  inbox.push_back({0, sim::PayloadRef(sim::AAValueMsg{Rational::of(1, 7)})});
  inbox.push_back({1, sim::PayloadRef(sim::AAValueMsg{Rational(-1000)})});
  inbox.push_back({2, sim::PayloadRef(sim::AAValueMsg{Rational(1000)})});
  inbox.push_back({3, sim::PayloadRef(sim::AAValueMsg{Rational::of(-3, 11)})});
  inbox.push_back({4, sim::PayloadRef(sim::AAValueMsg{Rational::of(5, 2)})});
  inbox.push_back({5, sim::PayloadRef(sim::AAValueMsg{Rational(0)})});
  inbox.push_back({6, sim::PayloadRef(sim::AAValueMsg{Rational::of(1, 3)})});

  for (int round = 1; round <= rounds; ++round) {
    fixed.on_receive(round, inbox);
    exact.on_receive(round, inbox);
    check.on_receive(round, inbox);
    ASSERT_EQ(fixed.value(), exact.value()) << "round " << round;
    ASSERT_EQ(check.value(), exact.value()) << "round " << round;
  }
}

}  // namespace
}  // namespace byzrename
