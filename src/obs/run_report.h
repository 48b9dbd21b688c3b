#ifndef BYZRENAME_OBS_RUN_REPORT_H
#define BYZRENAME_OBS_RUN_REPORT_H

#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.h"

namespace byzrename::obs {

class JsonWriter;

/// RunObserver that serializes each finished run as one JSON line
/// (schema byzrename.run/1, documented in obs/schema.h). Rounds are
/// buffered between on_run_start and on_run_end; the line is written and
/// flushed on run end, so a killed sweep keeps every completed run.
///
/// One sink instance serves ONE run at a time (it buffers per-run state
/// between start and end). For parallel campaigns, give each worker its
/// own sink over the shared stream and pass the same @p write_mutex to
/// all of them: each line is rendered privately and written in a single
/// guarded append, so concurrent writers can never interleave partial
/// JSONL lines.
class RunReportSink final : public RunObserver {
 public:
  /// @param bench optional emitting-binary name stamped into each line.
  /// @param write_mutex optional mutex shared by every sink writing to
  ///        @p os; nullptr for single-threaded use.
  explicit RunReportSink(std::ostream& os, std::string bench = {},
                         std::mutex* write_mutex = nullptr);

  /// Free-form row label written as the line's `label` (omitted when
  /// empty); it names the next run the sink reports.
  void set_label(std::string label) { label_ = std::move(label); }

  /// The per-round exact-rational probes can be left out of the lines
  /// for huge sweeps; counters and timers are always reported.
  void set_probes_enabled(bool enabled) noexcept { probes_ = enabled; }

  [[nodiscard]] Sampling sampling() const override {
    return probes_ ? Sampling::kProbes : Sampling::kCounters;
  }
  void on_run_start(const RunInfo& info) override;
  void on_round(const RoundSample& sample, const sim::Network& network) override;
  void on_run_end(const RunSummary& summary) override;

 private:
  std::ostream& os_;
  std::string bench_;
  std::mutex* write_mutex_;
  std::string label_;
  bool probes_ = true;
  RunInfo info_;
  std::vector<RoundSample> rounds_;
};

/// The per-round JSON fields byzrename.run/1 `per_round` entries and
/// byzrename.metrics/1 rows share: the round's counters, then the
/// acceptance and probe fields the sample carries.
void write_round_counters(JsonWriter& json, const sim::RoundMetrics& metrics);
void write_round_measurements(JsonWriter& json, const RoundSample& sample);

}  // namespace byzrename::obs

#endif  // BYZRENAME_OBS_RUN_REPORT_H
