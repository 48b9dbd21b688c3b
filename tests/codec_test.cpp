#include "sim/codec.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <iterator>
#include <random>
#include <set>
#include <type_traits>
#include <utility>

#include "numeric/bigint.h"
#include "numeric/fixed_rank.h"
#include "numeric/rational.h"

namespace byzrename::sim {
namespace {

using numeric::BigInt;
using numeric::Rational;

/// A vote of exact entries (width 0, the form decode() yields).
RanksMsg exact_ranks(std::initializer_list<std::pair<Id, Rational>> entries) {
  RanksMsg msg;
  for (const auto& [id, rank] : entries) msg.push_exact(id, rank);
  return msg;
}

/// The width-0 twin of a vote: every entry exact.
RanksMsg exact_form(const RanksMsg& msg) {
  RanksMsg out;
  msg.for_each_value([&out](Id id, const Rational& value) { out.push_exact(id, value); });
  return out;
}

void expect_round_trip(const Payload& payload) {
  const std::vector<std::uint8_t> bytes = encode(payload);
  const std::optional<Payload> decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value()) << describe(payload);
  EXPECT_EQ(*decoded, payload) << describe(payload);
}

TEST(Codec, RoundTripsSimpleMessages) {
  expect_round_trip(IdMsg{0});
  expect_round_trip(IdMsg{1});
  expect_round_trip(IdMsg{-1});
  expect_round_trip(IdMsg{std::numeric_limits<std::int64_t>::max()});
  expect_round_trip(IdMsg{std::numeric_limits<std::int64_t>::min()});
  expect_round_trip(EchoMsg{123456789});
  expect_round_trip(ReadyMsg{987654321});
}

TEST(Codec, RoundTripsRanks) {
  expect_round_trip(RanksMsg{});
  expect_round_trip(exact_ranks({{5, Rational::of(41, 40)}}));
  RanksMsg big;
  for (int i = 0; i < 100; ++i) big.push_exact(1000 + i, Rational::of(i * 41 + 1, 40));
  expect_round_trip(big);
}

TEST(Codec, RoundTripsNegativeAndHugeRationals) {
  expect_round_trip(AAValueMsg{Rational(0)});
  expect_round_trip(AAValueMsg{Rational(-7)});
  expect_round_trip(AAValueMsg{Rational::of(-22, 7)});
  const BigInt huge = (BigInt(1) << 300) + BigInt(12345);
  expect_round_trip(AAValueMsg{Rational(huge, (BigInt(1) << 128) + BigInt(1))});
  expect_round_trip(AAValueMsg{Rational(-huge, BigInt(3))});
}

TEST(Codec, RoundTripsMultiEchoAndWords) {
  expect_round_trip(MultiEchoMsg{});
  expect_round_trip(MultiEchoMsg{{1, 2, 3, -5, 1'000'000'000'000}});
  expect_round_trip(WordMsg{0, {}});
  expect_round_trip(WordMsg{-42, {1, -2, 3, std::numeric_limits<std::int64_t>::min()}});
}

TEST(Codec, SmallMessagesEncodeSmall) {
  // Varint efficiency: a 1-digit id costs 2 bytes total, not 9.
  EXPECT_EQ(encode(IdMsg{5}).size(), 2u);
  EXPECT_LE(encode(exact_ranks({{3, Rational::of(41, 40)}})).size(), 8u);
}

TEST(Codec, RejectsEmptyAndUnknownKind) {
  EXPECT_FALSE(decode({}).has_value());
  EXPECT_FALSE(decode({0x00}).has_value());
  EXPECT_FALSE(decode({0xFF, 0x01}).has_value());
}

TEST(Codec, RejectsTruncation) {
  const std::vector<std::uint8_t> good = encode(exact_ranks({{5, Rational::of(41, 40)}}));
  for (std::size_t cut = 1; cut < good.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(good.begin(),
                                              good.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode(truncated).has_value()) << "cut at " << cut;
  }
}

TEST(Codec, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes = encode(IdMsg{7});
  bytes.push_back(0x00);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsZeroDenominator) {
  // AAValue with numerator 1 and denominator of zero length.
  std::vector<std::uint8_t> bytes;
  bytes.push_back(6);     // kAAValue
  bytes.push_back(0x02);  // numerator header: 1 byte, positive
  bytes.push_back(0x01);  // numerator magnitude = 1
  bytes.push_back(0x00);  // denominator length 0 => zero
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsNonCanonicalBigintPadding) {
  // A magnitude with a trailing zero byte must be rejected so equal
  // values have exactly one encoding (no malleability).
  std::vector<std::uint8_t> bytes;
  bytes.push_back(6);     // kAAValue
  bytes.push_back(0x04);  // numerator header: 2 bytes, positive
  bytes.push_back(0x01);  // 1
  bytes.push_back(0x00);  // padded high byte
  bytes.push_back(0x01);  // denominator length 1
  bytes.push_back(0x01);  // denominator 1
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsNonMinimalVarints) {
  // 0x80 0x00 is a padded encoding of 0; only 0x00 is canonical.
  EXPECT_FALSE(decode({1 /*kId*/, 0x80, 0x00}).has_value());
  EXPECT_TRUE(decode({1 /*kId*/, 0x00}).has_value());
}

TEST(Codec, RejectsAbsurdVectorCounts) {
  std::vector<std::uint8_t> bytes;
  bytes.push_back(5);  // kMultiEcho
  // count = 2^40 as varint
  for (int i = 0; i < 5; ++i) bytes.push_back(0x80);
  bytes.push_back(0x10);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, FuzzDecodeNeverCrashes) {
  // Byzantine processes control every byte: decode must be total.
  std::mt19937_64 rng(20130707);
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> bytes(rng() % 64);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    const auto decoded = decode(bytes);  // must not crash or throw
    if (decoded.has_value()) {
      // Whatever decodes must re-encode to the same bytes (canonicality).
      EXPECT_EQ(encode(*decoded), bytes);
    }
  }
}

TEST(Codec, FuzzRoundTripRandomPayloads) {
  std::mt19937_64 rng(424242);
  for (int i = 0; i < 2000; ++i) {
    Payload payload;
    switch (rng() % 5) {
      case 0:
        payload = IdMsg{static_cast<std::int64_t>(rng())};
        break;
      case 1: {
        MultiEchoMsg msg;
        for (std::uint64_t k = rng() % 10; k > 0; --k) {
          msg.ids.push_back(static_cast<std::int64_t>(rng()));
        }
        payload = std::move(msg);
        break;
      }
      case 2: {
        RanksMsg msg;
        for (std::uint64_t k = rng() % 6; k > 0; --k) {
          const auto id = static_cast<std::int64_t>(rng() % 100000);
          msg.push_exact(id, Rational::of(static_cast<std::int64_t>(rng() % 2001) - 1000,
                                          static_cast<std::int64_t>(rng() % 999) + 1));
        }
        payload = std::move(msg);
        break;
      }
      case 3: {
        WordMsg msg{static_cast<std::int64_t>(rng() % 1000), {}};
        for (std::uint64_t k = rng() % 8; k > 0; --k) {
          msg.words.push_back(static_cast<std::int64_t>(rng()));
        }
        payload = std::move(msg);
        break;
      }
      default:
        payload = AAValueMsg{Rational::of(static_cast<std::int64_t>(rng()) / 1024,
                                          static_cast<std::int64_t>(rng() % 4095) + 1)};
        break;
    }
    const auto decoded = decode(encode(payload));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, payload);
  }
}

TEST(Codec, EncodedBitsMatchesEncodeSize) {
  const Payload payload = exact_ranks({{5, Rational::of(41, 40)}, {9, Rational::of(82, 40)}});
  EXPECT_EQ(encoded_bits(payload), encode(payload).size() * 8);
}

/// Fills `num` (width limbs) with one sizing case: zero, the extremes
/// of the two's-complement range, multiples of a large divisor of S
/// (their reduced denominator is far below S), or random limbs.
void fill_fixed_case(std::mt19937_64& rng, const numeric::FixedSpec& spec, numeric::limb_t* num) {
  const int w = spec.width;
  for (int i = 0; i < w; ++i) num[i] = 0;
  switch (rng() % 6) {
    case 0:
      break;  // zero reduces to 0/1
    case 1:  // most negative: -2^(64w - 1)
      num[w - 1] = numeric::limb_t{1} << 63;
      break;
    case 2:  // top of the positive range, sometimes negated
      for (int i = 0; i < w; ++i) num[i] = ~numeric::limb_t{0};
      num[w - 1] >>= 1;
      if (rng() % 2 == 0) numeric::limb_neg(num, num, w);
      break;
    case 3: {  // k * (S + c^I): a delta multiple, as honest ranks are
      (void)numeric::limb_mul_1(num, spec.delta_scaled.data(), w, rng() % 5000);
      if (rng() % 2 == 0) numeric::limb_neg(num, num, w);
      break;
    }
    case 4: {  // shares a power of two (up to 2^39) with S
      const int shift = static_cast<int>(rng() % 40);
      num[0] = (rng() % 100000) << shift;
      if (rng() % 2 == 0) numeric::limb_neg(num, num, w);
      break;
    }
    default:  // random limbs, either sign, random length
      for (int i = 0; i < w; ++i) num[i] = rng();
      for (int i = static_cast<int>(rng() % static_cast<std::uint64_t>(w)) + 1; i < w; ++i) {
        num[i] = (num[w - 1] >> 63) != 0 ? ~numeric::limb_t{0} : 0;
      }
      break;
  }
}

TEST(Codec, EncodedBitsMatchesEncodeSizeForRandomFixedVotes) {
  // Specs spanning one- and two-limb S at width 2, and widths 3 and 4.
  const numeric::FixedSpec specs[] = {
      numeric::derive_fixed_spec(128, 42, 21),   // S ~ 2^30, width 2
      numeric::derive_fixed_spec(13, 4, 9),      // tiny S, width 2
      numeric::derive_fixed_spec(1024, 16, 10),  // S ~ 2^72, width 2
      numeric::derive_fixed_spec(1024, 16, 15),  // S ~ 2^101, width 3
      numeric::derive_fixed_spec(1024, 16, 24),  // S ~ 2^155, width 4
  };
  std::set<int> widths;
  std::mt19937_64 rng(20131013);
  for (const numeric::FixedSpec& spec : specs) {
    ASSERT_TRUE(spec.ok);
    widths.insert(spec.width);
    for (int vote = 0; vote < 60; ++vote) {
      RanksMsg msg;
      msg.width = spec.width;
      msg.scale = spec.scale;
      sim::Id id = 0;
      for (std::uint64_t k = rng() % 40; k > 0; --k) {
        id += 1 + static_cast<sim::Id>(rng() % 1000);
        msg.ids.push_back(id);
        numeric::limb_t num[numeric::kFixedRankLimbs];
        fill_fixed_case(rng, spec, num);
        msg.nums.insert(msg.nums.end(), num, num + spec.width);
        // Exact to the bit, not just to the byte the codec rounds to.
        const Rational value = numeric::fixed_to_rational(num, spec.width, spec.scale_big);
        const numeric::ReducedBits shape =
            numeric::fixed_reduced_bits(num, spec.width, spec.scale.data());
        ASSERT_EQ(shape.num_bits, value.numerator().bit_length()) << value;
        ASSERT_EQ(shape.den_bits, value.denominator().bit_length()) << value;
        ASSERT_EQ(shape.negative, value.is_negative()) << value;
      }
      const Payload payload = msg;
      SCOPED_TRACE(describe(payload));
      EXPECT_EQ(encoded_bits(payload), encode(payload).size() * 8);
      EXPECT_EQ(encoded_bits(payload), encoded_bits(Payload(exact_form(msg))));
    }
  }
  EXPECT_EQ(widths, (std::set<int>{2, 3, 4}));
}

TEST(Codec, SideListAtTheGridBoundaries) {
  // Mixed votes: grid entries as limbs (fill_fixed_case), side entries
  // just off the grid (1/(7S): kOffGrid) or one grid unit past the top
  // of the range (2^(64w - 1)/S: kOverflow), first, last, everywhere,
  // alternating or nowhere. Each must size, describe and encode exactly
  // like the all-exact vote of the same values, and decode to it.
  const numeric::FixedSpec specs[] = {
      numeric::derive_fixed_spec(13, 4, 9),      // width 2
      numeric::derive_fixed_spec(1024, 16, 15),  // width 3
      numeric::derive_fixed_spec(1024, 16, 24),  // width 4
  };
  enum class Side { kNowhere, kFirst, kLast, kEverywhere, kAlternate };
  std::mt19937_64 rng(20130708);
  for (const numeric::FixedSpec& spec : specs) {
    ASSERT_TRUE(spec.ok);
    const int w = spec.width;
    const Rational off_grid(BigInt(1), BigInt(7) * spec.scale_big);
    std::vector<std::uint64_t> top(static_cast<std::size_t>(w), 0);
    top.back() = std::uint64_t{1} << 63;
    const Rational overflow(BigInt::from_words64(top.data(), w, false), spec.scale_big);
    const Rational side_values[] = {off_grid,  -off_grid,  off_grid * Rational(3) + Rational(1),
                                    overflow,  -overflow, overflow + off_grid};
    for (const Rational& value : side_values) {
      numeric::limb_t num[numeric::kFixedRankLimbs];
      ASSERT_NE(numeric::rational_to_fixed(value, spec, num), numeric::FixedConvert::kOk);
    }
    numeric::limb_t num[numeric::kFixedRankLimbs];
    ASSERT_EQ(numeric::rational_to_fixed(off_grid, spec, num), numeric::FixedConvert::kOffGrid);
    ASSERT_EQ(numeric::rational_to_fixed(overflow, spec, num), numeric::FixedConvert::kOverflow);
    ASSERT_EQ(numeric::rational_to_fixed(-overflow, spec, num), numeric::FixedConvert::kOverflow);

    for (const Side side :
         {Side::kNowhere, Side::kFirst, Side::kLast, Side::kEverywhere, Side::kAlternate}) {
      for (int vote = 0; vote < 12; ++vote) {
        RanksMsg mixed;
        mixed.width = w;
        mixed.scale = spec.scale;
        RanksMsg exact;
        const int count = 1 + static_cast<int>(rng() % 12);
        Id id = 0;
        for (int i = 0; i < count; ++i) {
          id += 1 + static_cast<Id>(rng() % 1000);
          const bool on_side = side == Side::kEverywhere || (side == Side::kFirst && i == 0) ||
                               (side == Side::kLast && i == count - 1) ||
                               (side == Side::kAlternate && i % 2 == 1);
          if (on_side) {
            const Rational& value = side_values[rng() % std::size(side_values)];
            mixed.push_exact(id, value);
            exact.push_exact(id, value);
          } else {
            fill_fixed_case(rng, spec, num);
            mixed.ids.push_back(id);
            mixed.nums.insert(mixed.nums.end(), num, num + w);
            exact.push_exact(id, numeric::fixed_to_rational(num, w, spec.scale_big));
          }
        }
        const Payload payload = mixed;
        const Payload expected = exact;
        SCOPED_TRACE(describe(expected));
        const std::vector<std::uint8_t> bytes = encode(payload);
        EXPECT_EQ(bytes, encode(expected));
        EXPECT_EQ(encoded_bits(payload), 8 * bytes.size());
        EXPECT_EQ(describe(payload), describe(expected));
        const std::optional<Payload> decoded = decode(bytes);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(std::get<RanksMsg>(*decoded).width, 0);
        EXPECT_EQ(*decoded, expected);
      }
    }
  }
}

TEST(Codec, PayloadRefMemoizesTheCodecSize) {
  const PayloadRef ref(exact_ranks({{5, Rational::of(41, 40)}, {9, Rational::of(82, 40)}}));
  const PayloadRef shared = ref;
  EXPECT_EQ(ref.encoded_bits(), encoded_bits(*ref));
  EXPECT_EQ(shared.encoded_bits(), encoded_bits(*ref));
  EXPECT_EQ(&*shared, &*ref);
}

// Wrapping an lvalue deep-copies it, so it must be spelled out;
// temporaries wrap implicitly.
static_assert(!std::is_convertible_v<const RanksMsg&, PayloadRef>);
static_assert(!std::is_convertible_v<MultiEchoMsg&, PayloadRef>);
static_assert(std::is_constructible_v<PayloadRef, const RanksMsg&>);
static_assert(std::is_convertible_v<RanksMsg&&, PayloadRef>);
static_assert(std::is_convertible_v<IdMsg, PayloadRef>);

TEST(BigIntBytes, MagnitudeRoundTrip) {
  for (const char* text : {"0", "1", "255", "256", "4294967295", "4294967296",
                           "340282366920938463463374607431768211457"}) {
    const BigInt value = BigInt::from_string(text);
    EXPECT_EQ(BigInt::from_magnitude_bytes(value.magnitude_bytes(), false), value) << text;
    EXPECT_EQ(BigInt::from_magnitude_bytes(value.magnitude_bytes(), true),
              value.is_zero() ? value : -value)
        << text;
  }
}

TEST(BigIntBytes, ToleratesTrailingZeroBytes) {
  EXPECT_EQ(BigInt::from_magnitude_bytes({0x05, 0x00, 0x00}, false), BigInt(5));
  EXPECT_EQ(BigInt::from_magnitude_bytes({}, true), BigInt(0));
}

}  // namespace
}  // namespace byzrename::sim
