#ifndef BYZRENAME_SIM_RUNNER_H
#define BYZRENAME_SIM_RUNNER_H

#include <functional>
#include <optional>
#include <vector>

#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/types.h"

namespace byzrename::sim {

/// Outcome of driving a network to completion.
struct RunResult {
  /// Number of synchronous rounds executed.
  int rounds = 0;
  /// True iff every correct process reported done() within the budget.
  bool terminated = false;
  /// decision()[i] for each process i (nullopt for Byzantine processes
  /// and for correct processes that did not decide).
  std::vector<std::optional<Name>> decisions;
  /// Round in which process i was first observed done() (0 = never);
  /// provenance for the checker's violation records.
  std::vector<Round> decide_rounds;
  Metrics metrics;
};

/// Observation hook invoked after each round's receive phase, for
/// callers that drive a Network directly (core::run_scenario callers
/// attach obs::RunObserver instead).
using RoundObserver = std::function<void(Round, const Network&)>;

/// Pre/post bracket around each round's execution, for callers that
/// need to MEASURE a round rather than observe its outcome (the
/// harness's observer brackets, such as the profiler's phase scopes).
/// on_round_begin fires immediately before Network::run_round and
/// on_round_end immediately after it — BEFORE the RoundObserver, so
/// observer/telemetry cost is never attributed to the protocol phase
/// being timed. Implementations must not touch the network; this is a
/// timing seam, not a second observer.
class RoundHook {
 public:
  virtual ~RoundHook() = default;
  virtual void on_round_begin(Round round) = 0;
  virtual void on_round_end(Round round) = 0;
};

/// Runs the network round by round until every correct process is done or
/// @p max_rounds is exhausted. All algorithms in the paper terminate in a
/// round count known a priori, so a run hitting max_rounds indicates a
/// bug and is reported via RunResult::terminated = false.
RunResult run_to_completion(Network& network, int max_rounds, const RoundObserver& observer = {},
                            RoundHook* hook = nullptr);

}  // namespace byzrename::sim

#endif  // BYZRENAME_SIM_RUNNER_H
