#ifndef BYZRENAME_NUMERIC_FIXED_RANK_H
#define BYZRENAME_NUMERIC_FIXED_RANK_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "numeric/bigint.h"
#include "numeric/rational.h"

namespace byzrename::numeric {

__extension__ typedef unsigned __int128 uwide_t;

/// 64-bit limb of a fixed-width rank value. Values are little-endian
/// two's-complement words, so negation/compare/add work without a sign
/// flag and a sorted SoA column can be scanned branch-free.
using limb_t = std::uint64_t;

/// Widest fixed rank the kernels support: 256 bits of two's complement.
/// Section IV-D of the paper bounds every honest rank numerator well
/// below this for any (N, t) the simulator accepts; instances whose
/// derived budget would not fit simply run the exact-Rational oracle.
inline constexpr int kFixedRankLimbs = 4;

/// Accumulator width: one extra limb absorbs the carry of summing up to
/// 2^12 full-width ballot values (ballots are padded to exactly N).
inline constexpr int kFixedAccLimbs = kFixedRankLimbs + 1;

/// Headroom kept between the scale's bit length and the value width so
/// that initial ranks (ids reach 1e12 in the harness, ~2^40) and every
/// adversarial integer shift the strategy zoo produces stay convertible.
inline constexpr std::size_t kFixedHeadroomBits = 48;

// ---------------------------------------------------------------------------
// Flat mpn-style kernels. All operate on `w` little-endian 64-bit limbs
// through raw pointers: no virtual dispatch, no allocation, no hidden
// state. `w` is tiny (2..kFixedAccLimbs) so the loops fully unroll.
// ---------------------------------------------------------------------------

/// r = a + b (two's complement, wrapping); returns the carry-out.
inline limb_t limb_add_n(limb_t* r, const limb_t* a, const limb_t* b, int w) noexcept {
  limb_t carry = 0;
  for (int i = 0; i < w; ++i) {
    const uwide_t s = static_cast<uwide_t>(a[i]) + b[i] + carry;
    r[i] = static_cast<limb_t>(s);
    carry = static_cast<limb_t>(s >> 64);
  }
  return carry;
}

/// r = a - b (two's complement, wrapping); returns the borrow-out.
inline limb_t limb_sub_n(limb_t* r, const limb_t* a, const limb_t* b, int w) noexcept {
  limb_t borrow = 0;
  for (int i = 0; i < w; ++i) {
    const uwide_t d = static_cast<uwide_t>(a[i]) - b[i] - borrow;
    r[i] = static_cast<limb_t>(d);
    borrow = static_cast<limb_t>((d >> 64) & 1);
  }
  return borrow;
}

/// Unsigned lexicographic compare: -1, 0 or +1.
inline int limb_cmp(const limb_t* a, const limb_t* b, int w) noexcept {
  for (int i = w - 1; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// r = a * m (unsigned); returns the carry-out limb.
inline limb_t limb_mul_1(limb_t* r, const limb_t* a, int w, limb_t m) noexcept {
  limb_t carry = 0;
  for (int i = 0; i < w; ++i) {
    const uwide_t p = static_cast<uwide_t>(a[i]) * m + carry;
    r[i] = static_cast<limb_t>(p);
    carry = static_cast<limb_t>(p >> 64);
  }
  return carry;
}

/// q = a / d, returns a % d (unsigned, d != 0).
inline limb_t limb_divrem_1(limb_t* q, const limb_t* a, int w, limb_t d) noexcept {
  limb_t rem = 0;
  for (int i = w - 1; i >= 0; --i) {
    const uwide_t cur = (static_cast<uwide_t>(rem) << 64) | a[i];
    q[i] = static_cast<limb_t>(cur / d);
    rem = static_cast<limb_t>(cur % d);
  }
  return rem;
}

/// r = -a (two's complement).
inline void limb_neg(limb_t* r, const limb_t* a, int w) noexcept {
  limb_t carry = 1;
  for (int i = 0; i < w; ++i) {
    const uwide_t s = static_cast<uwide_t>(~a[i]) + carry;
    r[i] = static_cast<limb_t>(s);
    carry = static_cast<limb_t>(s >> 64);
  }
}

/// The top bit of a limb. XOR-ing it into a value's top limb maps two's-
/// complement order onto unsigned order (offset binary): sort keys.
inline constexpr limb_t kSignBias = limb_t{1} << 63;

/// Sign bit of a two's-complement value.
inline bool limb_is_negative(const limb_t* v, int w) noexcept {
  return (v[w - 1] >> 63) != 0;
}

/// Widens a two's-complement value in place from from_w to to_w limbs.
inline void limb_sign_extend(limb_t* v, int from_w, int to_w) noexcept {
  const limb_t fill = limb_is_negative(v, from_w) ? ~limb_t{0} : limb_t{0};
  for (int i = from_w; i < to_w; ++i) v[i] = fill;
}

// ---------------------------------------------------------------------------
// Branch-free small sort for 128-bit keys.
// ---------------------------------------------------------------------------

/// Odd-even transposition network over 128-bit keys: every pass is a
/// data-independent sweep of compare-exchanges the compiler lowers to
/// conditional moves (no mispredictable branches), which beats
/// introsort's bookkeeping for the ballot sizes small instances produce.
inline void sort_u128_network(uwide_t* v, int count) noexcept {
  for (int pass = 0; pass < count; ++pass) {
    for (int i = pass & 1; i + 1 < count; i += 2) {
      const uwide_t lo = v[i] < v[i + 1] ? v[i] : v[i + 1];
      const uwide_t hi = v[i] < v[i + 1] ? v[i + 1] : v[i];
      v[i] = lo;
      v[i + 1] = hi;
    }
  }
}

/// Count at or below which the transposition network wins over std::sort.
inline constexpr int kNetworkSortMax = 32;

// ---------------------------------------------------------------------------
// Per-instance fixed-point spec.
// ---------------------------------------------------------------------------

/// Conversion outcome for Rational -> fixed.
enum class FixedConvert {
  kOk,
  kOffGrid,   ///< denominator does not divide the instance scale
  kOverflow,  ///< scaled numerator exceeds the fixed width
};

/// Derived fixed-point parameters of one protocol instance.
///
/// Every honest rank the voting phase of Alg. 1 (or the AA substrate)
/// can ever hold is an integer multiple of 1 / S where
///
///   S = 3(N+t) * c^I,   c = |select_t of the trimmed ballot|
///
/// because initial ranks are integer multiples of delta =
/// (3(N+t)+1) / (3(N+t)), ballots are padded to exactly N entries, so
/// select_t always picks the constant count c = floor((N-2t-1)/t)+1
/// (all of N when t == 0), and each of the I averaging iterations
/// divides a sum of c grid values by c. Fixed ranks therefore store the
/// integer numerator over the common denominator S in `width` 64-bit
/// two's-complement limbs; `width` adds kFixedHeadroomBits above S's
/// bit length so initial ranks and integer-shifted Byzantine values
/// convert too. Values off that grid (adversarial denominators) fall
/// back per ballot to the exact-Rational oracle, and instances whose S
/// does not fit kFixedRankLimbs run entirely on the oracle (ok ==
/// false). This is the constructive instantiation of the paper's
/// Section IV-D value-size envelope: honest numerators stay within
/// log2(S) + log2((N+t)*delta) bits.
struct FixedSpec {
  bool ok = false;
  int n = 0;
  int t = 0;
  int iterations = 0;
  std::int64_t select_count = 0;  ///< c; always >= 1 when ok
  int width = 0;                  ///< limbs per stored value, 2..kFixedRankLimbs
  int scale_limbs = 0;            ///< significant limbs of S
  std::size_t scale_bits = 0;     ///< bit length of S
  std::array<limb_t, kFixedRankLimbs> scale{};        ///< S, little-endian
  std::array<limb_t, kFixedAccLimbs> delta_scaled{};  ///< delta * S = S + c^I
  BigInt scale_big;               ///< S for the slow/oracle paths
};

/// Derives the spec for an instance; iterations < 0 is treated as 0.
/// Returns ok == false (oracle-only instance) when n/t are out of range
/// or S would not fit the supported width.
[[nodiscard]] FixedSpec derive_fixed_spec(int n, int t, int iterations);

/// Converts an exact rational to `spec.width` two's-complement limbs
/// over denominator S. kOffGrid if den does not divide S, kOverflow if
/// |num * (S/den)| >= 2^(64*width - 1). Heap-free on every input whose
/// numerator and denominator fit 128 bits (all honest traffic).
[[nodiscard]] FixedConvert rational_to_fixed(const Rational& value, const FixedSpec& spec,
                                             limb_t* out);

/// Exact inverse: materializes num/S as a canonical (reduced) Rational.
[[nodiscard]] Rational fixed_to_rational(const limb_t* num, int width, const BigInt& scale);

/// Shape of the canonical Rational fixed_to_rational would build.
struct ReducedBits {
  std::size_t num_bits = 0;  ///< bit length of |reduced numerator|
  std::size_t den_bits = 0;  ///< bit length of the reduced denominator
  bool negative = false;
};

/// Sizes num/S in lowest terms without building it: a limb gcd against
/// S (kFixedRankLimbs little-endian limbs, nonzero) and quotient bit
/// lengths by shift-compare. Heap-free; the codec sizes grid entries with
/// it. Zero reduces to 0/1.
[[nodiscard]] ReducedBits fixed_reduced_bits(const limb_t* num, int width,
                                             const limb_t* scale) noexcept;

}  // namespace byzrename::numeric

#endif  // BYZRENAME_NUMERIC_FIXED_RANK_H
