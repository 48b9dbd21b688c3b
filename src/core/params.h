#ifndef BYZRENAME_CORE_PARAMS_H
#define BYZRENAME_CORE_PARAMS_H

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "numeric/rational.h"
#include "sim/types.h"

namespace byzrename::core {

class ViewCache;

/// The rank stretch factor delta = 1 + 1/(3(N+t)) (Alg. 1, line 02).
/// Large enough that ranks one position apart stay separated through the
/// approximation error the voting phase leaves behind.
[[nodiscard]] inline numeric::Rational delta(const sim::SystemParams& params) {
  return numeric::Rational(1) +
         numeric::Rational::of(1, 3 * (static_cast<std::int64_t>(params.n) + params.t));
}

/// Ceiling of log2 for positive arguments; 0 for x <= 1.
[[nodiscard]] inline int ceil_log2(int x) noexcept {
  int bits = 0;
  int capacity = 1;
  while (capacity < x) {
    capacity *= 2;
    ++bits;
  }
  return bits;
}

/// Number of voting-phase iterations of Alg. 1: 3*ceil(log2 t) + 3
/// (steps 5 .. 3*ceil(log2 t) + 7 of the paper). With t == 0 all correct
/// processes compute identical accepted sets, so no approximation is
/// needed at all.
[[nodiscard]] inline int default_approximation_iterations(int t) noexcept {
  if (t <= 0) return 0;
  return 3 * ceil_log2(t) + 3;
}

/// Iterations used by the constant-time mode of Section V; sound when
/// N > t^2 + 2t (Lemma V.2).
inline constexpr int kConstantTimeIterations = 4;

/// Convergence rate sigma_t = floor((N-2t)/t) + 1 claimed by the paper
/// for one approximation step (Lemma IV.8). Requires t >= 1.
[[nodiscard]] inline int sigma_t(const sim::SystemParams& params) {
  if (params.t < 1) throw std::domain_error("sigma_t: requires t >= 1");
  return (params.n - 2 * params.t) / params.t + 1;
}

/// Arithmetic backend for the voting phase's rank computations.
enum class RankKernel {
  /// Fixed-width limb arithmetic over the per-instance common
  /// denominator (numeric/fixed_rank.h); falls back to the exact oracle
  /// per ballot for off-grid Byzantine values, so decisions and every
  /// observable output are bit-identical to kExact.
  kFixed,
  /// Exact arbitrary-precision Rational arithmetic: the oracle.
  kExact,
  /// Runs kFixed while maintaining a shadow kExact state and throws
  /// std::logic_error on any divergence. Test/diagnostic mode, kept as
  /// a user-facing one (--rank-kernel check, kernel=check): it is the
  /// only per-step lockstep check of the fixed kernel against the
  /// oracle on a real run.
  kCheck,
};

/// Parses a user-facing rank-kernel token (CLI --rank-kernel, campaign
/// spec kernel= clause).
[[nodiscard]] inline std::optional<RankKernel> rank_kernel_from_token(
    std::string_view token) noexcept {
  if (token == "fixed") return RankKernel::kFixed;
  if (token == "exact") return RankKernel::kExact;
  if (token == "check") return RankKernel::kCheck;
  return std::nullopt;
}

/// Upper bound on the encoded size (Rational::encoded_bits) of any one
/// rank a vote may carry. The paper bounds message size (Section IV-D),
/// so honest votes are small; this guards the exact-rational arithmetic
/// against Byzantine denominator inflation. Honest ranks after r
/// iterations need about r*log2(N) + log2(3(N+t)) bits, far below it, and
/// so does every value on a fixed-kernel grid (core/voting_kernel.cpp).
inline constexpr std::size_t kMaxRankBits = 4096;

/// Upper bound on the entries one vote may carry. Correct votes carry at
/// most N+t-1 entries (Lemma IV.3); anything larger is Byzantine spam.
[[nodiscard]] inline int max_vote_entries(const sim::SystemParams& params) noexcept {
  return params.n + params.t;
}

/// Configuration of the order-preserving renaming algorithm (Alg. 1).
struct RenamingOptions {
  /// Voting-phase iterations; -1 selects default_approximation_iterations.
  int approximation_iterations = -1;
  /// Voting-phase arithmetic backend. The default fixed-width kernel is
  /// observably identical to the exact oracle (the cross-check suite
  /// asserts byte-identical verdicts/metrics/audit output) but an order
  /// of magnitude cheaper; kExact remains as the oracle and kCheck runs
  /// both in lockstep.
  RankKernel rank_kernel = RankKernel::kFixed;
  /// ABLATION ONLY: when false, skips the Alg. 2 isValid filter on
  /// received votes (structural decode checks still apply). Exists so
  /// bench_a2 can demonstrate that without the filter a Byzantine vote
  /// stream breaks order preservation — the paper's Section IV-B
  /// motivation. Never disable this in real use.
  bool validate_votes = true;
  /// Voting-step cache shared by the fixed-kernel processes of one
  /// instance (core/voting_kernel.h). run_scenario attaches one per run;
  /// null, the default, steps every process on its own. Never set it to
  /// a cache another thread uses.
  ViewCache* view_cache = nullptr;
};

/// True iff (n, t) satisfies Alg. 1's resilience requirement N > 3t.
[[nodiscard]] inline bool valid_for_op_renaming(const sim::SystemParams& p) noexcept {
  return p.n > 3 * p.t && p.t >= 0;
}

/// True iff (n, t) lies in the constant-time regime of Section V.
[[nodiscard]] inline bool valid_for_constant_time(const sim::SystemParams& p) noexcept {
  return p.n > p.t * p.t + 2 * p.t && p.t >= 0;
}

/// True iff (n, t) satisfies Alg. 4's requirement N > 2t^2 + t.
[[nodiscard]] inline bool valid_for_fast_renaming(const sim::SystemParams& p) noexcept {
  return p.n > 2 * p.t * p.t + p.t && p.t >= 0;
}

}  // namespace byzrename::core

#endif  // BYZRENAME_CORE_PARAMS_H
