#include "core/rank_approx.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "numeric/bigint.h"

namespace byzrename::core {
namespace {

using numeric::BigInt;
using numeric::Rational;
using sim::Id;

const sim::SystemParams kParams{.n = 7, .t = 2};
const Rational kDelta = delta(kParams);

/// A vote of exact entries, in the given (possibly unsorted) order.
sim::RanksMsg exact_ranks(std::initializer_list<std::pair<Id, Rational>> entries) {
  sim::RanksMsg msg;
  for (const auto& [id, rank] : entries) msg.push_exact(id, rank);
  return msg;
}

RankMap ranks_of(std::initializer_list<std::pair<Id, Rational>> entries) {
  RankMap map;
  for (const auto& [id, rank] : entries) map.emplace(id, rank);
  return map;
}

// ---------------------------------------------------------------------------
// decode_vote
// ---------------------------------------------------------------------------

TEST(DecodeVote, AcceptsWellFormedSortedEntries) {
  const sim::RanksMsg msg = exact_ranks({{1, Rational(1)}, {5, Rational(2)}, {9, Rational(3)}});
  RankMap out;
  EXPECT_TRUE(decode_vote(msg, kParams, out));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out.at(5), Rational(2));
}

TEST(DecodeVote, RejectsUnsortedIds) {
  const sim::RanksMsg msg = exact_ranks({{5, Rational(1)}, {1, Rational(2)}});
  RankMap out;
  EXPECT_FALSE(decode_vote(msg, kParams, out));
}

TEST(DecodeVote, RejectsDuplicateIds) {
  const sim::RanksMsg msg = exact_ranks({{5, Rational(1)}, {5, Rational(2)}});
  RankMap out;
  EXPECT_FALSE(decode_vote(msg, kParams, out));
}

TEST(DecodeVote, RejectsEntryCountSpam) {
  sim::RanksMsg msg;
  for (int i = 0; i < max_vote_entries(kParams) + 1; ++i) msg.push_exact(i + 1, Rational(i + 1));
  ASSERT_EQ(static_cast<int>(msg.ids.size()), kParams.n + kParams.t + 1);
  RankMap out;
  EXPECT_FALSE(decode_vote(msg, kParams, out));
  // One fewer entry, n + t, fits the bound.
  msg.ids.pop_back();
  msg.exacts.pop_back();
  EXPECT_TRUE(decode_vote(msg, kParams, out));
}

/// 2^e + 2^-d: d + e + 1 numerator bits over d + 1 denominator bits, so
/// encoded_bits() == 2d + e + 4.
Rational sized_rank(int e, int d) {
  return Rational((BigInt(1) << static_cast<std::size_t>(d + e)) + BigInt(1),
                  BigInt(1) << static_cast<std::size_t>(d));
}

TEST(DecodeVote, RejectsOversizedRankEncodings) {
  const Rational largest = sized_rank(10, 2041);
  const Rational over = sized_rank(11, 2041);
  ASSERT_EQ(largest.encoded_bits(), kMaxRankBits);
  ASSERT_EQ(over.encoded_bits(), kMaxRankBits + 1);
  RankMap out;
  EXPECT_TRUE(decode_vote(exact_ranks({{1, Rational::of(1, 3)}, {2, largest}}), kParams, out));
  EXPECT_FALSE(decode_vote(exact_ranks({{1, Rational::of(1, 3)}, {2, over}}), kParams, out));
}

TEST(DecodeVote, AcceptsEmptyVote) {
  RankMap out;
  EXPECT_TRUE(decode_vote(sim::RanksMsg{}, kParams, out));
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// is_valid_ranks (Alg. 2)
// ---------------------------------------------------------------------------

TEST(IsValid, AcceptsDeltaSpacedCoverage) {
  const std::set<Id> timely{1, 2, 3};
  const RankMap vote = ranks_of({{1, kDelta}, {2, kDelta * Rational(2)}, {3, kDelta * Rational(3)}});
  EXPECT_TRUE(is_valid_ranks(timely, vote, kDelta));
}

TEST(IsValid, RejectsMissingTimelyId) {
  const std::set<Id> timely{1, 2, 3};
  const RankMap vote = ranks_of({{1, kDelta}, {3, kDelta * Rational(2)}});
  EXPECT_FALSE(is_valid_ranks(timely, vote, kDelta));
}

TEST(IsValid, RejectsSubDeltaSpacing) {
  const std::set<Id> timely{1, 2};
  const RankMap vote =
      ranks_of({{1, kDelta}, {2, kDelta + kDelta * Rational::of(99, 100)}});
  EXPECT_FALSE(is_valid_ranks(timely, vote, kDelta));
}

TEST(IsValid, AcceptsExactDeltaSpacing) {
  const std::set<Id> timely{1, 2};
  const RankMap vote = ranks_of({{1, Rational(5)}, {2, Rational(5) + kDelta}});
  EXPECT_TRUE(is_valid_ranks(timely, vote, kDelta));
}

TEST(IsValid, RejectsInvertedOrder) {
  const std::set<Id> timely{1, 2};
  const RankMap vote = ranks_of({{1, Rational(9)}, {2, Rational(1)}});
  EXPECT_FALSE(is_valid_ranks(timely, vote, kDelta));
}

TEST(IsValid, ExtraNonTimelyEntriesAreAllowed) {
  // Votes rank the sender's whole accepted set, which may exceed the
  // receiver's timely set; only timely coverage and spacing matter.
  const std::set<Id> timely{2, 4};
  const RankMap vote = ranks_of({{1, Rational(1)},
                                 {2, Rational(1) + kDelta},
                                 {3, Rational(100)},
                                 {4, Rational(1) + kDelta * Rational(2)}});
  EXPECT_TRUE(is_valid_ranks(timely, vote, kDelta));
}

TEST(IsValid, EmptyTimelyAcceptsAnything) {
  EXPECT_TRUE(is_valid_ranks({}, {}, kDelta));
  EXPECT_TRUE(is_valid_ranks({}, ranks_of({{1, Rational(0)}}), kDelta));
}

// ---------------------------------------------------------------------------
// select_t, averaged by trimmed_mean
// ---------------------------------------------------------------------------

TEST(SelectT, PicksSmallestAndEveryTth) {
  // n = 10, t = 2: the trimmed middle is sorted positions 2..7, and
  // select_t takes its positions 0, 2, 4, i.e. ballot positions 2, 4, 6.
  std::vector<Rational> ballot;
  for (const int value : {9, 3, 0, 7, 1, 8, 5, 2, 6, 4}) ballot.emplace_back(value * value);
  EXPECT_EQ(trimmed_mean(ballot, 2), Rational::of(4 + 16 + 36, 3));
  EXPECT_TRUE(std::is_sorted(ballot.begin(), ballot.end()));  // sorted in place
}

TEST(SelectT, CountMatchesSigmaFormula) {
  // |select_t| on N-2t elements is floor((N-2t-1)/t)+1, which is
  // sigma_t = floor((N-2t)/t)+1 whenever t does not divide N-2t. On the
  // ballot 0, 1, ..., N-1 the mean of positions t, 2t, ..., ct is
  // t(c+1)/2, which pins the count c.
  for (int n = 4; n <= 40; ++n) {
    for (int t = 1; 3 * t < n; ++t) {
      std::vector<Rational> ballot;
      for (int i = n - 1; i >= 0; --i) ballot.emplace_back(i);
      const int count = (n - 2 * t - 1) / t + 1;
      EXPECT_EQ(trimmed_mean(ballot, t), Rational::of(t * (count + 1), 2))
          << "n=" << n << " t=" << t;
      EXPECT_GE(count, 2) << "contraction requires at least two points";
    }
  }
}

TEST(SelectT, ZeroTReturnsEverything) {
  std::vector<Rational> ballot{Rational(2), Rational(1), Rational(6)};
  EXPECT_EQ(trimmed_mean(ballot, 0), Rational(3));
}

TEST(InitialRanks, PositionTimesDelta) {
  const RankMap ranks = initial_ranks({42, 7, 1000}, kDelta);
  EXPECT_EQ(ranks,
            ranks_of({{7, kDelta}, {42, kDelta * Rational(2)}, {1000, kDelta * Rational(3)}}));
  EXPECT_TRUE(initial_ranks({}, kDelta).empty());
}

// ---------------------------------------------------------------------------
// approximate (Alg. 3)
// ---------------------------------------------------------------------------

std::vector<RankMap> identical_votes(int count, const RankMap& vote) {
  return std::vector<RankMap>(static_cast<std::size_t>(count), vote);
}

TEST(Approximate, UnanimousVotesAreFixpoint) {
  std::set<Id> accepted{1, 2, 3};
  const RankMap mine =
      ranks_of({{1, kDelta}, {2, kDelta * Rational(2)}, {3, kDelta * Rational(3)}});
  const ApproximateResult result =
      approximate(kParams, accepted, mine, identical_votes(kParams.n, mine));
  EXPECT_TRUE(result.dropped.empty());
  EXPECT_EQ(result.new_ranks, mine);
}

TEST(Approximate, DropsIdsBelowVoteThreshold) {
  std::set<Id> accepted{1, 2};
  const RankMap with_both = ranks_of({{1, Rational(1)}, {2, Rational(1) + kDelta}});
  const RankMap only_one = ranks_of({{1, Rational(1)}});
  // Id 2 appears in only 4 votes < N-t = 5.
  std::vector<RankMap> votes = identical_votes(4, with_both);
  votes.push_back(only_one);
  const ApproximateResult result = approximate(kParams, accepted, with_both, votes);
  EXPECT_TRUE(result.dropped.contains(2));
  EXPECT_FALSE(accepted.contains(2));
  EXPECT_TRUE(result.new_ranks.contains(1));
  EXPECT_FALSE(result.new_ranks.contains(2));
}

TEST(Approximate, TrimNeutralizesExtremeMinority) {
  // t = 2 Byzantine votes at +/- 10^6 must not drag the result outside
  // the correct range [1, 1+delta].
  std::set<Id> accepted{1};
  const RankMap mine = ranks_of({{1, Rational(1)}});
  std::vector<RankMap> votes = identical_votes(kParams.n - kParams.t, mine);
  votes.push_back(ranks_of({{1, Rational(1'000'000)}}));
  votes.push_back(ranks_of({{1, Rational(-1'000'000)}}));
  const ApproximateResult result = approximate(kParams, accepted, mine, votes);
  EXPECT_EQ(result.new_ranks.at(1), Rational(1));
}

TEST(Approximate, OutputStaysInCorrectRange) {
  // Lemma IV.8 containment: with 5 correct votes in [10, 20] and 2
  // Byzantine extremes, the new value must stay in [10, 20].
  std::set<Id> accepted{1};
  const RankMap mine = ranks_of({{1, Rational(10)}});
  std::vector<RankMap> votes;
  votes.push_back(ranks_of({{1, Rational(10)}}));
  votes.push_back(ranks_of({{1, Rational(12)}}));
  votes.push_back(ranks_of({{1, Rational(15)}}));
  votes.push_back(ranks_of({{1, Rational(18)}}));
  votes.push_back(ranks_of({{1, Rational(20)}}));
  votes.push_back(ranks_of({{1, Rational(1'000'000)}}));
  votes.push_back(ranks_of({{1, Rational(-1'000'000)}}));
  const ApproximateResult result = approximate(kParams, accepted, mine, votes);
  EXPECT_GE(result.new_ranks.at(1), Rational(10));
  EXPECT_LE(result.new_ranks.at(1), Rational(20));
}

TEST(Approximate, PadsMissingVotesWithOwnValue) {
  // Exactly N-t votes arrive; the remaining t slots are filled with the
  // local value, which then influences the average.
  std::set<Id> accepted{1};
  const RankMap mine = ranks_of({{1, Rational(0)}});
  const std::vector<RankMap> votes = identical_votes(kParams.n - kParams.t, ranks_of({{1, Rational(10)}}));
  const ApproximateResult result = approximate(kParams, accepted, mine, votes);
  // Ballot (sorted): [0, 0, 10, 10, 10, 10, 10] -> trim 2 -> [10,10,10]
  // wait: trim removes two lowest (0,0) and two highest (10,10): [10,10,10].
  EXPECT_EQ(result.new_ranks.at(1), Rational(10));
}

TEST(Approximate, PairwiseDeltaGapIsPreservedAcrossStep) {
  // Lemma A.3: if every vote spaces two ids by >= delta, so does the
  // output — even when votes disagree wildly about absolute positions.
  std::set<Id> accepted{1, 2};
  std::mt19937_64 rng(99);
  const RankMap mine = ranks_of({{1, Rational(3)}, {2, Rational(3) + kDelta}});
  std::vector<RankMap> votes;
  for (int v = 0; v < kParams.n; ++v) {
    const Rational base(static_cast<std::int64_t>(rng() % 1000));
    const Rational gap = kDelta + Rational::of(static_cast<std::int64_t>(rng() % 5), 3);
    votes.push_back(ranks_of({{1, base}, {2, base + gap}}));
  }
  std::set<Id> accepted_copy = accepted;
  const ApproximateResult result = approximate(kParams, accepted_copy, mine, votes);
  EXPECT_GE(result.new_ranks.at(2) - result.new_ranks.at(1), kDelta);
}

TEST(Approximate, ContractionMatchesSigma) {
  // Two processes whose vote multisets differ in at most t entries end up
  // within Delta/sigma_t of each other (Lemma IV.8).
  const sim::SystemParams params{.n = 13, .t = 2};
  const int sigma = sigma_t(params);
  // Correct votes spread over [0, 100]; the two processes see the same
  // correct votes but different Byzantine extremes.
  std::vector<RankMap> correct_votes;
  for (int i = 0; i < params.n - params.t; ++i) {
    correct_votes.push_back(ranks_of({{1, Rational(100 * i / (params.n - params.t - 1))}}));
  }
  std::vector<RankMap> votes_p = correct_votes;
  votes_p.push_back(ranks_of({{1, Rational(-500)}}));
  votes_p.push_back(ranks_of({{1, Rational(-600)}}));
  std::vector<RankMap> votes_q = correct_votes;
  votes_q.push_back(ranks_of({{1, Rational(500)}}));
  votes_q.push_back(ranks_of({{1, Rational(600)}}));

  std::set<Id> accepted_p{1};
  std::set<Id> accepted_q{1};
  const RankMap mine_p = ranks_of({{1, Rational(0)}});
  const RankMap mine_q = ranks_of({{1, Rational(100)}});
  const Rational new_p = approximate(params, accepted_p, mine_p, votes_p).new_ranks.at(1);
  const Rational new_q = approximate(params, accepted_q, mine_q, votes_q).new_ranks.at(1);
  const Rational spread = (new_p - new_q).abs();
  EXPECT_LE(spread, Rational(100) / Rational(sigma));
}

TEST(Approximate, ZeroFaultsAveragesAllVotes) {
  const sim::SystemParams params{.n = 3, .t = 0};
  std::set<Id> accepted{1};
  const RankMap mine = ranks_of({{1, Rational(1)}});
  std::vector<RankMap> votes;
  votes.push_back(ranks_of({{1, Rational(1)}}));
  votes.push_back(ranks_of({{1, Rational(2)}}));
  votes.push_back(ranks_of({{1, Rational(3)}}));
  const ApproximateResult result = approximate(params, accepted, mine, votes);
  EXPECT_EQ(result.new_ranks.at(1), Rational(2));
}

TEST(EncodeVote, RoundTripsThroughDecode) {
  const RankMap original =
      ranks_of({{3, Rational::of(7, 2)}, {8, Rational(5)}, {11, Rational::of(21, 4)}});
  RankMap decoded;
  ASSERT_TRUE(decode_vote(encode_vote(original), kParams, decoded));
  EXPECT_EQ(decoded, original);
}

}  // namespace
}  // namespace byzrename::core
