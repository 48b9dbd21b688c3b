// The traced run: rebuilds one renaming instance from the library's
// public calls (generate_ids, make_correct_behavior, find_adversary,
// Network + FaultInjector, run_to_completion, check_renaming) with every
// behaviour wrapped in a timing decorator, and reduces the spans to
// per-layer self times and allocation counts.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/harness.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kInstance,
  kSetup,
  kRound,
  kCheck,
  kCoreSend,
  kCoreRecv,
  kAdversarySend,
  kAdversaryRecv,
};

[[nodiscard]] const char* to_string(SpanKind kind) noexcept;

/// One timed interval. Behaviour spans point at their round span; round,
/// setup and check spans point at their instance span.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  SpanKind kind = SpanKind::kInstance;
  std::uint32_t instance = 0;
  std::uint32_t parent = kNoParent;
  std::int32_t round = 0;
  std::uint32_t items = 0;  ///< inbox size for receive spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< calling-thread allocations inside the span
};

/// In-memory span store for one thread; written out when the run ends.
class SpanLog {
 public:
  std::uint32_t begin(SpanKind kind, std::uint32_t parent, std::int32_t round);
  void end(std::uint32_t span, std::uint32_t items = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Writes one CSV row per span; returns false if the file cannot be
  /// written.
  [[nodiscard]] bool write_csv(const std::string& path) const;

  std::uint32_t instance = 0;
  std::uint32_t current_round = Span::kNoParent;

 private:
  std::vector<Span> spans_;
};

/// Per-instance layer totals reduced from the spans. Index 0 is the
/// id-selection phase group (rounds classified selection/echo/ready by
/// core::round_phase), index 1 the voting group (voting + decision).
struct LayerTotals {
  double wall_s = 0;
  double setup_s = 0;
  double check_s = 0;
  double rounds_s = 0;
  double sim_self_s[2] = {0, 0};
  double sim_allocs[2] = {0, 0};
  double core_send_s[2] = {0, 0};
  double core_recv_s[2] = {0, 0};
  double core_allocs[2] = {0, 0};
  double adversary_send_s[2] = {0, 0};
  double adversary_recv_s = 0;
  double adversary_allocs = 0;
  double votes_received = 0;  ///< deliveries to correct processes, voting group

  /// Σ layer self time ÷ instance wall time.
  [[nodiscard]] double coverage() const noexcept {
    return wall_s > 0 ? (setup_s + rounds_s + check_s) / wall_s : 0;
  }
};

/// What the fidelity gate compares against core::run_scenario.
struct TracedOutcome {
  std::vector<std::optional<byzrename::sim::Name>> decisions;
  std::size_t messages = 0;
  std::size_t bits = 0;
  long rejected = 0;
  bool all_ok = false;
  LayerTotals layers;
};

/// Runs @p config traced, appending its spans to @p log under instance
/// id @p instance. Supports what the benchmark's workloads use: op and
/// fast renaming, any adversary, link-fault plans without forge or
/// restart events.
[[nodiscard]] TracedOutcome run_traced(const byzrename::core::ScenarioConfig& config,
                                       SpanLog& log, std::uint32_t instance);

/// Empty when the traced outcome matches the untraced reference, else a
/// description of the first difference.
[[nodiscard]] std::string fidelity_mismatch(const TracedOutcome& traced,
                                            const byzrename::core::ScenarioResult& reference);

struct Options;
struct Report;

/// Runs @p config both ways, untraced through core::run_scenario and
/// traced through run_traced, in the given order, and applies the
/// fidelity gate: a mismatch is recorded in @p report as a wrong output
/// and false is returned.
bool traced_pair(const byzrename::core::ScenarioConfig& config, SpanLog& log,
                 std::uint32_t instance, bool traced_first, Report& report, double& untraced_s,
                 double& traced_s, TracedOutcome& outcome);

/// Writes @p log to <spans_dir>/<workload>-seed<seed>.spans.csv and
/// notes the path in @p report.
void write_spans(const SpanLog& log, const Options& options, Report& report);

/// Reports the per-instance medians of the layer totals of @p traced
/// (sim, adversary, core, trace.coverage) and the vote rejection ratio.
void report_layers(Report& report, const std::vector<TracedOutcome>& traced);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
