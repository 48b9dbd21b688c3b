#ifndef BYZRENAME_CORE_ALGORITHM_H
#define BYZRENAME_CORE_ALGORITHM_H

#include <optional>
#include <string_view>

namespace byzrename::core {

/// Which protocol a scenario runs. Adversary strategies dispatch on this
/// to speak the protocol's message grammar when attacking it.
enum class Algorithm {
  kOpRenaming,              ///< Alg. 1, N > 3t, namespace N+t-1, 3*ceil(log t)+7 steps
  kOpRenamingConstantTime,  ///< Alg. 1 with 4 voting iterations, N > t^2+2t, namespace N
  kFastRenaming,            ///< Alg. 4, N > 2t^2+t, namespace N^2, 2 steps
  kCrashRenaming,           ///< baseline: Okun-style order-preserving renaming, crash faults
  kConsensusRenaming,       ///< baseline: phase-king consensus renaming, N > 4t, linear steps
  kBitRenaming,             ///< baseline: [15]-style non-order-preserving, namespace 2N
  kTranslatedRenaming,      ///< baseline: crash renaming [14] under the generic
                            ///< crash-to-Byzantine translation [3]/[13] — the approach
                            ///< the paper's introduction rejects; 2x steps, ~N x messages
  kScalarAA,                ///< substrate: one Byzantine approximate agreement instance
};

[[nodiscard]] constexpr std::string_view to_string(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kOpRenaming: return "op-renaming";
    case Algorithm::kOpRenamingConstantTime: return "op-renaming-const";
    case Algorithm::kFastRenaming: return "fast-renaming";
    case Algorithm::kCrashRenaming: return "crash-renaming";
    case Algorithm::kConsensusRenaming: return "consensus-renaming";
    case Algorithm::kBitRenaming: return "bit-renaming";
    case Algorithm::kTranslatedRenaming: return "translated-renaming";
    case Algorithm::kScalarAA: return "scalar-aa";
  }
  return "unknown";
}

/// Short user-facing token, as accepted by the CLI's --algorithm flag and
/// the campaign grid's algo= clause. Kept distinct from to_string (the
/// stable telemetry/report name) so schemas never change when the CLI
/// vocabulary does.
[[nodiscard]] constexpr std::string_view cli_token(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kOpRenaming: return "op";
    case Algorithm::kOpRenamingConstantTime: return "const";
    case Algorithm::kFastRenaming: return "fast";
    case Algorithm::kCrashRenaming: return "crash";
    case Algorithm::kConsensusRenaming: return "consensus";
    case Algorithm::kBitRenaming: return "bit";
    case Algorithm::kTranslatedRenaming: return "translated";
    case Algorithm::kScalarAA: return "scalar-aa";
  }
  return "unknown";
}

/// Parses a short token (as printed by cli_token) back to its Algorithm.
/// kScalarAA is a substrate, not a user-facing renaming protocol, so its
/// token is deliberately not accepted here. The single parser both the
/// CLI and the campaign grid language dispatch through.
[[nodiscard]] constexpr std::optional<Algorithm> algorithm_from_token(
    std::string_view token) noexcept {
  constexpr Algorithm kUserFacing[] = {
      Algorithm::kOpRenaming,       Algorithm::kOpRenamingConstantTime,
      Algorithm::kFastRenaming,     Algorithm::kCrashRenaming,
      Algorithm::kConsensusRenaming, Algorithm::kBitRenaming,
      Algorithm::kTranslatedRenaming,
  };
  for (const Algorithm algorithm : kUserFacing) {
    if (token == cli_token(algorithm)) return algorithm;
  }
  return std::nullopt;
}

}  // namespace byzrename::core

#endif  // BYZRENAME_CORE_ALGORITHM_H
