// Shared types of the byzrename benchmark: command-line options, the
// metric catalogue (which must match BENCHMARK.json), and the report a
// workload returns to main.
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test hook: falsify one expected output so the run must fail.
  bool corrupt = false;
  /// Directory the traced run writes its span file into.
  std::string spans_dir = ".";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with tracing off.
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"instance_s", "s"},
      {"allocs_per_instance", "count"},
      {"peak_rss_mb", "MB"},
      {"runs_per_s", "1/s"},
  };
  return defs;
}

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not reach reports 0.
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"samples", "count"},
      {"sim.self_s.idsel", "s"},
      {"sim.self_s.vote", "s"},
      {"sim.allocs.idsel", "count"},
      {"sim.allocs.vote", "count"},
      {"sim.messages", "count"},
      {"sim.bytes", "B"},
      {"adversary.send_s.idsel", "s"},
      {"adversary.send_s.vote", "s"},
      {"adversary.recv_s", "s"},
      {"adversary.allocs", "count"},
      {"core.send_s.idsel", "s"},
      {"core.send_s.vote", "s"},
      {"core.recv_s.idsel", "s"},
      {"core.recv_s.vote", "s"},
      {"core.allocs.idsel", "count"},
      {"core.allocs.vote", "count"},
      {"core.vote_reject_ratio", "ratio"},
      {"core.voting_step_s", "s"},
      {"core.voting_step_allocs", "count"},
      {"core.setup_s", "s"},
      {"core.check_s", "s"},
      {"exp.run_s.p50", "s"},
      {"exp.run_s.p99", "s"},
      {"exp.busy_ratio", "ratio"},
      {"exp.tail_s", "s"},
      {"exp.steals", "count"},
      {"svc.p50_ms.low", "ms"},
      {"svc.p50_ms.mid", "ms"},
      {"svc.p50_ms.high", "ms"},
      {"svc.p99_ms.low", "ms"},
      {"svc.p99_ms.mid", "ms"},
      {"svc.p99_ms.high", "ms"},
      {"svc.max_rate", "1/s"},
      {"svc.submit_us.p50", "us"},
      {"svc.submit_us.p99", "us"},
      {"svc.refused_ratio", "ratio"},
      {"svc.exec_ms.p50", "ms"},
      {"svc.wait_ms.p50", "ms"},
      {"svc.wait_ms.p99", "ms"},
      {"svc.cpu_s", "s"},
      {"svc.busy_ratio", "ratio"},
      {"svc.backlog_max", "count"},
      {"gen.late_ms.p99", "ms"},
      {"gen.late_ms.max", "ms"},
      {"trace.overhead", "ratio"},
      {"trace.coverage", "ratio"},
  };
  return defs;
}

/// What one workload run measured and whether its outputs were right.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable extras printed above the result line (sample counts,
  /// the service's per-rate latencies in untraced runs, span file path).
  std::vector<std::string> notes;
  /// First few wrong outputs, for the error message.
  std::vector<std::string> errors;
  /// Non-empty when the measurement itself is invalid (the open-loop
  /// generator fell behind), with the reason. Outputs may still be right.
  std::string invalid;
  /// Provenance: digest of the generated inputs.
  std::uint64_t input_digest = 0;

  /// Records one wrong output: the run is incorrect and exits non-zero.
  void wrong(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

Report run_alg1(const Options& options);
Report run_campaign(const Options& options);
Report run_service(const Options& options);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per next(), and restores its original CPU set when destroyed.
/// On a shared host one vCPU can run at half the speed of the others for
/// minutes; a one-thread workload left to the scheduler tends to stay on
/// one vCPU for a whole run, so its figures follow that vCPU's luck.
/// Rotating makes every run sample every CPU, as a workload using all
/// cores does. Only for threads that start no others while it is active:
/// new threads inherit the single-CPU set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// "name: median M unit, pP T unit, N samples" (the tail only when
/// there are enough samples for one), values scaled by @p scale.
inline std::string describe(const std::string& name, const std::vector<double>& values,
                            const std::string& unit, double scale = 1.0) {
  const Summary summary = summarize(values);
  std::string text = name + ": median " + std::to_string(summary.median * scale) + " " + unit;
  if (summary.tail_pct > 0) {
    char pct[16];
    std::snprintf(pct, sizeof pct, "%g", summary.tail_pct);
    text += ", p" + std::string(pct) + " " + std::to_string(summary.tail * scale) + " " + unit;
  }
  return text + ", " + std::to_string(summary.count) + " samples";
}

/// Runs @p setup @p reps times and returns the median wall time; the
/// benchmark's set-up figure is a median so one slow page-in does not
/// set it.
template <typename F>
double median_setup_seconds(int reps, F&& setup) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
