#include "numeric/fixed_rank.h"

#include <bit>
#include <utility>

namespace byzrename::numeric {

namespace {

/// Stops the scale derivation once S can no longer fit a convertible
/// width; keeps user-supplied iteration counts from driving a pointless
/// big-integer power loop.
constexpr std::size_t kScaleBitCap = 64 * kFixedRankLimbs;

/// Schoolbook a(aw limbs) * b(bw limbs) -> r (aw+bw limbs, zeroed here).
void mul_mag(limb_t* r, const limb_t* a, int aw, const limb_t* b, int bw) noexcept {
  for (int i = 0; i < aw + bw; ++i) r[i] = 0;
  for (int i = 0; i < aw; ++i) {
    limb_t carry = 0;
    for (int j = 0; j < bw; ++j) {
      const uwide_t p = static_cast<uwide_t>(a[i]) * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<limb_t>(p);
      carry = static_cast<limb_t>(p >> 64);
    }
    r[i + bw] = carry;
  }
}

int significant_words(const limb_t* v, int w) noexcept {
  while (w > 0 && v[w - 1] == 0) --w;
  return w;
}

// --- reduced-fraction sizing (fixed_reduced_bits) ----------------------

// One- and two-limb magnitudes (limb_t or uwide_t) share these.
template <typename U>
int bit_width_of(U v) noexcept {
  if constexpr (sizeof(U) == sizeof(limb_t)) {
    return std::bit_width(v);
  } else {
    const auto hi = static_cast<limb_t>(v >> 64);
    return hi != 0 ? 64 + std::bit_width(hi) : std::bit_width(static_cast<limb_t>(v));
  }
}

template <typename U>
int trailing_zeros(U v) noexcept {
  if constexpr (sizeof(U) == sizeof(limb_t)) {
    return std::countr_zero(v);
  } else {
    const auto lo = static_cast<limb_t>(v);
    return lo != 0 ? std::countr_zero(lo) : 64 + std::countr_zero(static_cast<limb_t>(v >> 64));
  }
}

/// Bit length of a / g for a divisor g of a (both nonzero): the quotient
/// has d or d + 1 bits, d the difference of bit lengths, and it is the
/// latter iff a >= g << d.
template <typename U>
int exact_quotient_bits(U a, U g) noexcept {
  const int d = bit_width_of(a) - bit_width_of(g);
  return a >= (g << d) ? d + 1 : d;
}

/// Sizes a/S for nonzero a and S of one type. Splitting S = 2^e * odd,
/// the shared power of two comes from trailing zeros, and the odd part
/// of the gcd from one remainder and a binary gcd over magnitudes below
/// odd(S), which is small whenever c is a power of two.
template <typename U>
ReducedBits reduce_small(U a, U scale, bool negative) noexcept {
  const int e = trailing_zeros(scale);
  U odd = scale >> e;
  U rest = a % odd;
  while (rest != 0) {
    rest >>= trailing_zeros(rest);
    if (odd > rest) std::swap(odd, rest);
    rest -= odd;
  }
  const U g = odd << std::min(trailing_zeros(a), e);
  return {static_cast<std::size_t>(exact_quotient_bits(a, g)),
          static_cast<std::size_t>(exact_quotient_bits(scale, g)), negative};
}

/// Fixed-size unsigned magnitudes for the rare values beyond 128 bits.
using Wide = std::array<limb_t, kFixedRankLimbs>;

int bit_width_wide(const Wide& v) noexcept {
  for (int i = kFixedRankLimbs - 1; i >= 0; --i) {
    if (v[i] != 0) return 64 * i + std::bit_width(v[i]);
  }
  return 0;
}

int ctz_wide(const Wide& v) noexcept {
  for (int i = 0; i < kFixedRankLimbs; ++i) {
    if (v[i] != 0) return 64 * i + std::countr_zero(v[i]);
  }
  return 64 * kFixedRankLimbs;
}

Wide shift_wide(const Wide& v, int bits, bool left) noexcept {
  Wide out{};
  const int words = bits / 64;
  const int rem = bits % 64;
  for (int i = 0; i < kFixedRankLimbs; ++i) {
    const int src = left ? i - words : i + words;
    if (src < 0 || src >= kFixedRankLimbs) continue;
    limb_t word = left ? v[src] << rem : v[src] >> rem;
    const int carry = left ? src - 1 : src + 1;
    if (rem != 0 && carry >= 0 && carry < kFixedRankLimbs) {
      word |= left ? v[carry] >> (64 - rem) : v[carry] << (64 - rem);
    }
    out[i] = word;
  }
  return out;
}

int exact_quotient_bits_wide(const Wide& a, const Wide& g) noexcept {
  const int d = bit_width_wide(a) - bit_width_wide(g);
  return limb_cmp(a.data(), shift_wide(g, d, true).data(), kFixedRankLimbs) >= 0 ? d + 1 : d;
}

Wide gcd_wide(Wide a, Wide b) noexcept {
  const int shift = std::min(ctz_wide(a), ctz_wide(b));
  a = shift_wide(a, ctz_wide(a), false);
  while (bit_width_wide(b) != 0) {
    b = shift_wide(b, ctz_wide(b), false);
    if (limb_cmp(a.data(), b.data(), kFixedRankLimbs) > 0) std::swap(a, b);
    (void)limb_sub_n(b.data(), b.data(), a.data(), kFixedRankLimbs);
  }
  return shift_wide(a, shift, true);
}

}  // namespace

FixedSpec derive_fixed_spec(int n, int t, int iterations) {
  FixedSpec spec;
  spec.n = n;
  spec.t = t;
  spec.iterations = iterations < 0 ? 0 : iterations;
  if (n < 1 || t < 0 || (t > 0 && n - 2 * t - 1 < 0)) return spec;
  spec.select_count = t > 0 ? static_cast<std::int64_t>((n - 2 * t - 1) / t) + 1
                            : static_cast<std::int64_t>(n);

  BigInt power(1);
  for (int i = 0; i < spec.iterations; ++i) {
    power *= BigInt(spec.select_count);
    if (power.bit_length() > kScaleBitCap) return spec;  // oracle-only instance
  }
  spec.scale_big = BigInt(3 * (static_cast<std::int64_t>(n) + t)) * power;
  spec.scale_bits = spec.scale_big.bit_length();
  if (spec.scale_bits + kFixedHeadroomBits + 1 > kScaleBitCap) return spec;

  spec.width = std::max(
      2, static_cast<int>((spec.scale_bits + kFixedHeadroomBits + 1 + 63) / 64));
  spec.scale_limbs = spec.scale_big.magnitude_words64(spec.scale.data(), kFixedRankLimbs);

  // delta * S = S + S/(3(N+t)) = S + c^I: the integer the validity
  // check's gap comparison uses (is_valid_ranks over the fixed lane).
  std::array<limb_t, kFixedRankLimbs> power_words{};
  power.magnitude_words64(power_words.data(), kFixedRankLimbs);
  std::array<limb_t, kFixedRankLimbs> sum{};
  limb_add_n(sum.data(), spec.scale.data(), power_words.data(), kFixedRankLimbs);
  for (int i = 0; i < kFixedRankLimbs; ++i) spec.delta_scaled[i] = sum[i];
  spec.delta_scaled[kFixedRankLimbs] = 0;

  spec.ok = true;
  return spec;
}

FixedConvert rational_to_fixed(const Rational& value, const FixedSpec& spec, limb_t* out) {
  // Denominator must divide S exactly; m = S / den is the grid multiplier.
  limb_t den[kFixedRankLimbs];
  const int den_words = value.denominator().magnitude_words64(den, kFixedRankLimbs);
  if (den_words < 0) return FixedConvert::kOffGrid;  // den > S, cannot divide it

  limb_t multiplier[kFixedRankLimbs];
  int multiplier_words;
  if (den_words <= 1) {
    const limb_t d = den_words == 0 ? 1 : den[0];  // canonical den is never 0
    if (limb_divrem_1(multiplier, spec.scale.data(), spec.scale_limbs, d) != 0) {
      return FixedConvert::kOffGrid;
    }
    multiplier_words = significant_words(multiplier, spec.scale_limbs);
  } else {
    BigInt quotient;
    BigInt remainder;
    BigInt::div_mod(spec.scale_big, value.denominator(), quotient, remainder);
    if (!remainder.is_zero()) return FixedConvert::kOffGrid;
    multiplier_words = quotient.magnitude_words64(multiplier, kFixedRankLimbs);
  }

  limb_t num[kFixedRankLimbs];
  const int num_words = value.numerator().magnitude_words64(num, kFixedRankLimbs);
  if (num_words < 0) return FixedConvert::kOverflow;

  // Hot path: honest traffic has one-limb numerators and multipliers
  // (the §IV-D budget keeps S itself small for moderate N), so the
  // scaled numerator is a single 64x64 multiply.
  if (num_words <= 1 && multiplier_words <= 1) {
    const uwide_t p = static_cast<uwide_t>(num_words == 0 ? 0 : num[0]) *
                      (multiplier_words == 0 ? 0 : multiplier[0]);
    const limb_t hi = static_cast<limb_t>(p >> 64);
    if (spec.width == 2 && (hi >> 63) != 0) return FixedConvert::kOverflow;
    limb_t product2[kFixedRankLimbs] = {static_cast<limb_t>(p), hi, 0, 0};
    if (value.is_negative()) {
      limb_neg(out, product2, spec.width);
    } else {
      for (int i = 0; i < spec.width; ++i) out[i] = product2[i];
    }
    return FixedConvert::kOk;
  }

  limb_t product[2 * kFixedRankLimbs];
  mul_mag(product, num, num_words, multiplier, multiplier_words);
  // Reject magnitudes >= 2^(64*width - 1): the symmetric two's-complement
  // range, so sign handling below cannot overflow.
  const int product_words = significant_words(product, num_words + multiplier_words);
  if (product_words > spec.width) return FixedConvert::kOverflow;
  for (int i = product_words; i < spec.width; ++i) product[i] = 0;
  if ((product[spec.width - 1] >> 63) != 0) return FixedConvert::kOverflow;

  if (value.is_negative()) {
    limb_neg(out, product, spec.width);
  } else {
    for (int i = 0; i < spec.width; ++i) out[i] = product[i];
  }
  return FixedConvert::kOk;
}

Rational fixed_to_rational(const limb_t* num, int width, const BigInt& scale) {
  limb_t magnitude[kFixedRankLimbs];
  const bool negative = limb_is_negative(num, width);
  if (negative) {
    limb_neg(magnitude, num, width);
  } else {
    for (int i = 0; i < width; ++i) magnitude[i] = num[i];
  }
  return Rational(BigInt::from_words64(magnitude, width, negative), scale);
}

ReducedBits fixed_reduced_bits(const limb_t* num, int width, const limb_t* scale) noexcept {
  ReducedBits out;
  Wide mag{};
  out.negative = limb_is_negative(num, width);
  if (out.negative) {
    limb_neg(mag.data(), num, width);
  } else {
    for (int i = 0; i < width; ++i) mag[i] = num[i];
  }
  const int mag_words = significant_words(mag.data(), kFixedRankLimbs);
  if (mag_words == 0) {
    out.den_bits = 1;  // canonical zero is 0/1
    return out;
  }
  Wide s{};
  for (int i = 0; i < kFixedRankLimbs; ++i) s[i] = scale[i];
  const int scale_words = significant_words(s.data(), kFixedRankLimbs);
  if (mag_words <= 1 && scale_words <= 1) return reduce_small(mag[0], s[0], out.negative);
  if (mag_words <= 2 && scale_words <= 2) {
    return reduce_small((static_cast<uwide_t>(mag[1]) << 64) | mag[0],
                        (static_cast<uwide_t>(s[1]) << 64) | s[0], out.negative);
  }
  const Wide g = gcd_wide(mag, s);
  out.num_bits = static_cast<std::size_t>(exact_quotient_bits_wide(mag, g));
  out.den_bits = static_cast<std::size_t>(exact_quotient_bits_wide(s, g));
  return out;
}

}  // namespace byzrename::numeric
