#ifndef BYZRENAME_EXP_REPRO_H
#define BYZRENAME_EXP_REPRO_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/algorithm.h"
#include "core/harness.h"
#include "obs/telemetry.h"
#include "sim/fault.h"
#include "sim/types.h"

namespace byzrename::obs {
class JsonWriter;
class JsonValue;
}  // namespace byzrename::obs

namespace byzrename::exp {

/// The portable essence of one scenario: everything run_scenario needs,
/// nothing machine-local. A ReproScenario plus its seed names the exact
/// same execution on every machine — the unit the shrinker minimizes and
/// the repro bundle ships.
struct ReproScenario {
  core::Algorithm algorithm = core::Algorithm::kOpRenaming;
  sim::SystemParams params;
  std::string adversary = "silent";
  /// Actually faulty processes, <= t; -1 means t.
  int actual_faults = -1;
  std::uint64_t seed = 1;
  /// Voting iterations override; -1 selects the algorithm default.
  int iterations = -1;
  bool validate_votes = true;
  int extra_rounds = 0;
  sim::FaultPlan fault_plan;

  [[nodiscard]] core::ScenarioConfig to_config() const;

  friend bool operator==(const ReproScenario&, const ReproScenario&) = default;
};

/// How a run went wrong (or did not).
enum class FailureKind {
  kNone,       ///< all four renaming properties held
  kViolation,  ///< the checker flagged at least one property
  kException,  ///< run_scenario threw
  kTimeout,    ///< the watchdog deadline expired (volatile!)
};

[[nodiscard]] constexpr std::string_view to_string(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kViolation: return "violation";
    case FailureKind::kException: return "exception";
    case FailureKind::kTimeout: return "timeout";
  }
  return "unknown";
}

/// Deterministic digest of one evaluation: the shrinker's comparison
/// object and the bundle's expected outcome. Every field is a pure
/// function of the scenario (kTimeout aside, which is wall-clock
/// dependent by nature and never stored as an expected verdict).
struct ReproVerdict {
  FailureKind kind = FailureKind::kNone;
  /// Canonical comma-joined violated classes (CheckReport::classes());
  /// empty unless kind == kViolation.
  std::string classes;
  /// Checker detail line or exception message.
  std::string detail;
  int rounds = 0;
  bool terminated = false;
  std::int64_t max_name = 0;

  [[nodiscard]] bool failed() const noexcept { return kind != FailureKind::kNone; }

  friend bool operator==(const ReproVerdict&, const ReproVerdict&) = default;
};

/// Thrown by the watchdog observer when a run exceeds its deadline.
class RunTimeoutError : public std::runtime_error {
 public:
  explicit RunTimeoutError(double seconds)
      : std::runtime_error("run exceeded watchdog deadline of " + std::to_string(seconds) +
                           "s") {}
};

/// Cooperative wall-clock watchdog: an observer that checks a
/// steady-clock deadline after every round and throws RunTimeoutError
/// past it. Cooperative because threads cannot be killed safely;
/// lockstep rounds are the natural check granularity, so a hang
/// *within* one round's process code is interrupted at the next round
/// boundary it never reaches — the campaign layer's retry/quarantine
/// handles that by catching the executor thread's eventual throw or, for
/// a true never-returns hang, by the operator's ctest-level TIMEOUT.
/// Put it after the run's probes, so a hanging probe is caught too. The
/// deadline starts at construction.
class Watchdog final : public obs::RunObserver {
 public:
  explicit Watchdog(double timeout_seconds)
      : timeout_seconds_(timeout_seconds),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(timeout_seconds)) {}

  void on_round(const obs::RoundSample&, const sim::Network&) override {
    if (std::chrono::steady_clock::now() > deadline_) throw RunTimeoutError(timeout_seconds_);
  }

 private:
  double timeout_seconds_;
  std::chrono::time_point<std::chrono::steady_clock, std::chrono::duration<double>> deadline_;
};

/// The verdict digest of a finished run: the one mapping from a
/// ScenarioResult to a ReproVerdict, shared by evaluate_scenario and
/// `byzrename --verdict-out`.
[[nodiscard]] ReproVerdict verdict_of(const core::ScenarioResult& result);

/// Runs the scenario and digests the outcome. With @p timeout_seconds > 0
/// a Watchdog guards the run. Never throws on run failures —
/// exceptions become kException verdicts; only malformed scenarios that
/// cannot even be digested (nothing today) would propagate.
[[nodiscard]] ReproVerdict evaluate_scenario(const ReproScenario& scenario,
                                             double timeout_seconds = 0.0);

/// The shrinker's acceptance predicate: does @p candidate fail the same
/// way as @p reference? Violations match on the CLASS SET (the message
/// text legitimately changes as the scenario shrinks); exceptions match
/// on the message; timeouts match on kind alone.
[[nodiscard]] bool same_failure(const ReproVerdict& reference, const ReproVerdict& candidate);

/// Self-contained failure reproduction: scenario + seed + the verdict the
/// scenario is expected to produce. Schema byzrename.repro/1 (see
/// obs/schema.h and docs/FAULTS.md); replayed by `byzrename --repro`.
struct ReproBundle {
  /// Where the failure was first seen (campaign name / cell key / rep);
  /// informational only, empty for hand-written bundles.
  std::string campaign;
  std::string cell;
  int rep = -1;
  ReproScenario scenario;
  ReproVerdict expected;
};

/// Emits `"scenario": {...}` (key plus object) into an open JSON object.
/// The single serialization of a portable scenario: repro bundles, the
/// service's byzrename.verdict/1 items, and `byzrename --verdict-out`
/// all call this, which is what makes their scenario objects
/// byte-comparable.
void write_repro_scenario(obs::JsonWriter& json, const ReproScenario& scenario);

/// Emits the verdict fields (kind/classes/detail/rounds/terminated/
/// max_name) into an already-open JSON object — the counterpart of
/// write_repro_scenario for the verdict shape shared by repro bundles
/// and the service API.
void write_repro_verdict_body(obs::JsonWriter& json, const ReproVerdict& verdict);

/// Parses the object written by write_repro_scenario; throws
/// std::invalid_argument on missing fields, unknown algorithm tokens,
/// or a malformed fault plan.
[[nodiscard]] ReproScenario parse_repro_scenario(const obs::JsonValue& value);

/// Parses the object written by write_repro_verdict_body.
[[nodiscard]] ReproVerdict parse_repro_verdict(const obs::JsonValue& value);

/// Serializes the bundle as one deterministic JSON document.
void write_repro_bundle(std::ostream& os, const ReproBundle& bundle);

/// Parses a byzrename.repro/1 document; throws std::invalid_argument on
/// malformed input or an unknown schema.
[[nodiscard]] ReproBundle parse_repro_bundle(std::string_view text);

/// Writes the byzrename.repro-verdict/1 replay outcome: deterministic
/// (no wall clock, no thread count), so two replays of one bundle — at
/// any thread counts — must produce byte-identical files.
void write_repro_verdict(std::ostream& os, const ReproBundle& bundle,
                         const ReproVerdict& observed, int replays, bool consistent);

}  // namespace byzrename::exp

#endif  // BYZRENAME_EXP_REPRO_H
