#ifndef BYZRENAME_OBS_HTTP_EXPOSITION_H
#define BYZRENAME_OBS_HTTP_EXPOSITION_H

#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/http/http_server.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"

namespace byzrename::obs {

/// The single Prometheus exposition path of a process: every registered
/// writer appends its families to one text document, in registration
/// order, under one mutex. Both the live GET /metrics handler and the
/// end-of-run --prom-out snapshot render through write(), so the two
/// outputs differ only by whatever the in-flight counters did between
/// the scrape and the end of the run.
///
/// Writers run with the hub mutex held; a writer that shares state with
/// a producer thread must do its own synchronization (GuardedMetricsSink
/// below, or lock-free snapshots like exp::ProgressTracker's).
class ExpositionHub {
 public:
  using Writer = std::function<void(std::ostream&)>;

  void add_writer(Writer writer) {
    const std::lock_guard<std::mutex> lock(mutex_);
    writers_.push_back(std::move(writer));
  }

  /// Renders every writer into @p os. Safe to call from the server
  /// thread while producers keep running.
  void write(std::ostream& os) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Writer> writers_;
};

/// Process-level gauges for the live plane: resident set size and its
/// peak, read from /proc/self/status. Writes nothing on platforms
/// without procfs — absent families, not zeros, per the registry's
/// never-touched convention.
void write_process_metrics(std::ostream& os);

/// MetricsSink wrapper that makes one run's registry scrapeable while
/// the run is producing it: every observer hook and every exposition
/// call takes the same mutex, so GET /metrics during a round boundary
/// sees a consistent registry. The per-round cost is one uncontended
/// lock — nothing on the simulation's allocation-free paths changes.
class GuardedMetricsSink final : public RunObserver {
 public:
  [[nodiscard]] Sampling sampling() const override { return Sampling::kProbes; }
  void on_run_start(const RunInfo& info) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_run_start(info);
  }

  void on_round(const RoundSample& sample, const sim::Network& network) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_round(sample, network);
  }

  void write_prometheus(std::ostream& os) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.write_prometheus(os);
  }

 private:
  mutable std::mutex mutex_;
  MetricsSink inner_;
};

/// Mounts GET /metrics serving @p hub as Prometheus text exposition.
/// The hub must outlive the server.
void mount_prometheus(HttpServer& server, const ExpositionHub& hub);

/// Mounts GET /healthz returning "ok\n" while the process is serving.
void mount_healthz(HttpServer& server);

/// Mounts a JSON endpoint whose body is produced by @p writer on every
/// request (e.g. /progress fed by exp::ProgressTracker). The writer is
/// invoked on the server thread and must be internally synchronized.
void mount_json(HttpServer& server, std::string path,
                std::function<void(std::ostream&)> writer);

}  // namespace byzrename::obs

#endif  // BYZRENAME_OBS_HTTP_EXPOSITION_H
