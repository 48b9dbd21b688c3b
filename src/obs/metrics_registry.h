#ifndef BYZRENAME_OBS_METRICS_REGISTRY_H
#define BYZRENAME_OBS_METRICS_REGISTRY_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithm.h"
#include "core/phase.h"
#include "obs/telemetry.h"

namespace byzrename::obs {

/// Appends @p value to @p os escaped for use inside a Prometheus label
/// value's quotes: backslash, double-quote, and line-feed become \\,
/// \", and \n per the text-format spec. Shared by every exposition
/// writer in the repo so hostile values (adversary names, cell keys)
/// can never corrupt a scrape.
void write_prometheus_label_value(std::ostream& os, std::string_view value);

/// Appends @p help escaped for a # HELP line: backslash and line-feed
/// become \\ and \n (quotes are legal raw in HELP text).
void write_prometheus_help(std::ostream& os, std::string_view help);

/// Typed, allocation-light metric store: monotonic counters, gauges, and
/// exact integer histograms. Instruments are registered once (returning a
/// dense Handle) and updated by index — no string lookup ever happens on
/// the per-round path, and no update allocates. Exposition is Prometheus
/// text format (write_prometheus); the per-round JSONL timeseries and the
/// trace counter tracks are produced by MetricsSink, which owns one
/// registry per run.
class MetricsRegistry {
 public:
  using Handle = std::size_t;

  /// Registers a monotonic counter. @p phase becomes the Prometheus
  /// `phase` label; empty = unlabeled series. Series of one family
  /// (same name) may be registered at any time — exposition groups them
  /// under one # HELP/# TYPE header in first-registration order, which
  /// is what lets the service register per-tenant series as sessions
  /// arrive.
  Handle counter(std::string name, std::string help, std::string phase = {});

  /// Counter with an arbitrary single label ({session="tenant-a"}).
  /// The help text of the family's first registration wins.
  Handle labeled_counter(std::string name, std::string help, std::string label_key,
                         std::string label_value);

  /// Registers a gauge (last written value wins).
  Handle gauge(std::string name, std::string help);

  /// Gauge with an arbitrary single label.
  Handle labeled_gauge(std::string name, std::string help, std::string label_key,
                       std::string label_value);

  /// Registers an exact integer histogram over the given inclusive
  /// upper bounds (must be strictly increasing; a +Inf bucket is
  /// implicit). Counts are exact uint64 — no sampling, no decay.
  Handle histogram(std::string name, std::string help,
                   std::vector<std::uint64_t> upper_bounds);

  void add(Handle counter, std::uint64_t delta);
  void set(Handle gauge, double value);
  void observe(Handle histogram, std::uint64_t value);

  [[nodiscard]] std::uint64_t counter_value(Handle handle) const;
  [[nodiscard]] double gauge_value(Handle handle) const;
  [[nodiscard]] std::uint64_t histogram_count(Handle handle) const;
  [[nodiscard]] std::uint64_t histogram_sum(Handle handle) const;

  [[nodiscard]] bool empty() const noexcept { return instruments_.empty(); }
  void clear() { instruments_.clear(); }

  /// Exponentially spaced histogram bounds: first, first*factor, ...
  /// (@p count bounds total) — the standard shape for message/bit counts
  /// whose interesting structure spans orders of magnitude.
  [[nodiscard]] static std::vector<std::uint64_t> exponential_bounds(std::uint64_t first,
                                                                     std::uint64_t factor,
                                                                     int count);

  /// Prometheus text exposition (one # HELP/# TYPE header per family,
  /// then all of its series, families in first-registration order).
  /// Instruments never updated are skipped so a run that visits three
  /// phases does not advertise the other three as zeros. Deterministic:
  /// registration order, no timestamps.
  void write_prometheus(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    Kind kind = Kind::kCounter;
    std::string name;
    std::string help;
    std::string label_key;    ///< e.g. "phase", "session"; empty = unlabeled
    std::string label_value;
    bool touched = false;
    std::uint64_t count = 0;  ///< counter value / histogram sample count
    double gauge = 0.0;
    std::uint64_t sum = 0;  ///< histogram sum of observed values
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> bucket_counts;  ///< bounds.size() + 1 (+Inf)
  };

  std::vector<Instrument> instruments_;
};

/// RunObserver that feeds a MetricsRegistry from the harness's
/// per-round samples, annotating every counter with the protocol phase
/// (core/phase.h) the round belongs to, and buffering one deterministic
/// row per round for the byzrename.metrics/1 timeseries. Put it on the
/// run's observer list next to any other sink; when it is not attached
/// the run pays nothing (the registry-off case of docs/PERFORMANCE.md).
///
/// Like RunReportSink, one MetricsSink serves one run at a time.
class MetricsSink final : public RunObserver {
 public:
  /// One captured round: the sample plus its phase classification. The
  /// JSONL writer, the trace counter exporter, and the auditor's tests
  /// all read this buffer, so it deliberately carries no wall clocks.
  struct Row {
    RoundSample sample;
    core::RoundPhase phase;
  };

  [[nodiscard]] Sampling sampling() const override { return Sampling::kProbes; }
  void on_run_start(const RunInfo& info) override;
  void on_round(const RoundSample& sample, const sim::Network& network) override;

  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  [[nodiscard]] const MetricsRegistry& registry() const noexcept { return registry_; }

  /// One byzrename.metrics/1 line per captured round (schema'd in
  /// obs/schema.h). Fully deterministic — golden-file comparable.
  void write_metrics_jsonl(std::ostream& os) const;

  /// Prometheus text dump of the run's registry (--metrics-out).
  void write_prometheus(std::ostream& os) const { registry_.write_prometheus(os); }

 private:
  struct PhaseCounters {
    MetricsRegistry::Handle messages = 0;
    MetricsRegistry::Handle bits = 0;
    MetricsRegistry::Handle correct_messages = 0;
    MetricsRegistry::Handle correct_bits = 0;
    MetricsRegistry::Handle equivocating_sends = 0;
    MetricsRegistry::Handle injected_faults = 0;
  };

  RunInfo info_;
  MetricsRegistry registry_;
  std::vector<Row> rows_;
  /// One slot per core::Phase value, registered up front so the
  /// per-round path is pure array indexing.
  std::vector<PhaseCounters> per_phase_;
  MetricsRegistry::Handle rounds_total_ = 0;
  MetricsRegistry::Handle rank_spread_ = 0;
  MetricsRegistry::Handle adjacent_gap_ = 0;
  MetricsRegistry::Handle accepted_min_ = 0;
  MetricsRegistry::Handle accepted_max_ = 0;
  MetricsRegistry::Handle rejected_votes_ = 0;
  MetricsRegistry::Handle round_messages_hist_ = 0;
  MetricsRegistry::Handle message_bits_hist_ = 0;
};

}  // namespace byzrename::obs

#endif  // BYZRENAME_OBS_METRICS_REGISTRY_H
