#ifndef BYZRENAME_OBS_BENCH_REPORT_H
#define BYZRENAME_OBS_BENCH_REPORT_H

#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "exp/campaign.h"
#include "obs/run_report.h"

namespace byzrename::obs {

/// One-stop telemetry plumbing for the bench binaries: opens
/// <out_dir>/<bench_name>.jsonl (creating the directory), and routes
/// every scenario through run_scenario with a RunReportSink attached, so
/// each bench emits its human table AND a machine-readable trajectory
/// feed without hand-rolled wiring.
///
/// Filesystem failures (read-only checkout, exotic CI sandbox) disable
/// reporting instead of failing the bench: the tables still print.
///
/// Thread safety: run() serializes whole scenarios behind an internal
/// mutex (the shared sink buffers per-run state) — correct but serial.
/// Parallel benches go through run_campaign(), which gives every worker
/// its own sink and only shares the mutex-guarded line writes.
class BenchReporter {
 public:
  explicit BenchReporter(std::string bench_name, std::string out_dir = "bench/out");

  /// run_scenario with the report sink attached; @p label lands in the
  /// report's `label` field (use the table row's coordinates). Safe to
  /// call from multiple threads, but runs back-to-back; use
  /// run_campaign() when throughput matters.
  core::ScenarioResult run(core::ScenarioConfig config, std::string label = {});

  /// Runs a campaign through the src/exp engine with this reporter's
  /// file as the destination: one byzrename.run/1 line per run (written
  /// concurrently, never interleaved) followed by the deterministic
  /// byzrename.campaign/1 cell lines. @p options::runs_out/runs_bench
  /// are overridden to point here.
  exp::CampaignResult run_campaign(const exp::CampaignSpec& spec,
                                   exp::CampaignOptions options = {});

  /// Emits a byzrename.series/1 line for measurements that are not
  /// scenario runs (e.g. the scalar-AA contraction series of F3).
  void write_series(const std::string& label,
                    const std::vector<std::pair<std::string, double>>& values);

  [[nodiscard]] bool enabled() const noexcept { return out_.is_open(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// See RunReportSink::set_probes_enabled.
  void set_probes_enabled(bool enabled) noexcept { sink_.set_probes_enabled(enabled); }

  /// Prints a one-line pointer to the report file (no-op when disabled);
  /// benches call this after their table.
  void announce(std::ostream& os) const;

 private:
  std::string bench_;
  std::string path_;
  std::ofstream out_;
  std::mutex write_mutex_;  ///< guards whole-line appends to out_
  std::mutex run_mutex_;    ///< serializes run() scenarios (shared sink state)
  RunReportSink sink_;
};

}  // namespace byzrename::obs

#endif  // BYZRENAME_OBS_BENCH_REPORT_H
