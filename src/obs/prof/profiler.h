#ifndef BYZRENAME_OBS_PROF_PROFILER_H
#define BYZRENAME_OBS_PROF_PROFILER_H

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/prof/alloc_profiler.h"
#include "obs/prof/perf_counters.h"

namespace byzrename::obs::prof {

/// One aggregated node of the scoped timer tree. All measured fields
/// are INCLUSIVE of children (standard profile semantics); exporters
/// derive self-values by subtracting child totals.
///
/// Determinism contract (what the campaign's per-cell aggregation and
/// its --threads 1 vs 8 byte-compare gate rely on): `calls`, `allocs`,
/// and `alloc_bytes` are pure functions of the instrumented execution —
/// call counts come from the code path taken and allocation deltas from
/// the executing THREAD's counters (obs/prof/alloc_profiler.h), so
/// concurrent runs on other workers cannot bleed in. Everything else
/// (wall, CPU, hardware counters) is volatile by nature and exporters
/// segregate it accordingly.
struct ProfileNode {
  std::string name;
  int parent = -1;  ///< index into ProfileSnapshot::nodes; -1 = top level
  int depth = 0;    ///< 0 for top-level scopes
  std::uint64_t calls = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;       ///< CLOCK_THREAD_CPUTIME_ID deltas
  std::uint64_t allocs = 0;       ///< operator-new calls inside the scope
  std::uint64_t alloc_bytes = 0;  ///< bytes requested inside the scope
  HwCounts hw;                    ///< zeros in timer-only mode
};

/// Point-in-time deep copy of a Profiler's tree, safe to hold and
/// export with no further synchronization. Nodes are in first-visit
/// (preorder-compatible) order: a parent always precedes its children.
struct ProfileSnapshot {
  bool hw_available = false;  ///< any hardware counter opened
  std::vector<ProfileNode> nodes;

  /// Semicolon-joined path from the top-level ancestor down to
  /// @p index, e.g. "run;voting k=2" — the collapsed-stack key and the
  /// deterministic sort key of campaign aggregates.
  [[nodiscard]] std::string path(std::size_t index) const;
};

/// Current CLOCK_THREAD_CPUTIME_ID in nanoseconds (0 where unsupported).
/// Exposed for callers that attribute CPU time without a full profiler,
/// e.g. the byzrenamed per-tenant accounting.
[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept;

/// Low-overhead scoped profiler: a tree of named scopes aggregated into
/// per-node wall/CPU time, call counts, allocation deltas, and (when
/// perf_event_open works — see PerfCounters) hardware counters.
///
/// ## Threading model
///
/// One Profiler instruments ONE thread at a time: enter/exit pair on the
/// measuring thread (Scope enforces this by construction), while
/// snapshot() and the write_* exporters in profile_io.h may run
/// concurrently on any number of scrape threads. Every operation takes
/// the internal mutex — uncontended in steady state, the same pattern
/// as obs::GuardedMetricsSink — which is what makes a live GET /profile
/// during a run safe under TSan. Hardware counters open lazily on the
/// first enter() so they attach to the thread actually being measured,
/// not the one that constructed the Profiler.
///
/// ## Steady-state allocation freedom
///
/// Tree nodes are interned on first visit (name copied once, children
/// scanned linearly — no hashing); after a scope has been visited and
/// the frame stack has reached its deepest nesting, enter()/exit() do
/// not allocate. bench_w3_hotpath enforces this: a warmed profiled
/// voting step must show zero heap allocations.
///
/// Like the ProgressTracker, the profiler is a strictly read-only
/// observer: nothing it measures feeds back into any run result, so
/// attaching one cannot perturb the determinism gates.
class Profiler {
 public:
  /// Injectable time sources, for deterministic exporter goldens. Plain
  /// function pointers so the hot path stays allocation- and
  /// indirection-cheap; null selects the real clock.
  struct ClockOverride {
    std::uint64_t (*wall_ns)() = nullptr;
    std::uint64_t (*cpu_ns)() = nullptr;
  };

  struct Options {
    /// Request hardware counters (still subject to PerfCounters
    /// availability and BYZRENAME_NO_PERF).
    bool hw_counters = true;
    ClockOverride clock;
  };

  Profiler() = default;
  explicit Profiler(Options options) : options_(options) {}
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Opens (interns) the named child of the current scope and pushes it.
  /// Prefer the RAII Scope over calling this directly.
  void enter(std::string_view name);

  /// Pops the current scope, folding its deltas into the node.
  /// Tolerates an unbalanced call (no-op on an empty stack) so an
  /// exception unwinding past manual enter() calls cannot corrupt state.
  void exit();

  /// True once hardware counters opened (false before the first enter).
  [[nodiscard]] bool hw_available() const;

  [[nodiscard]] ProfileSnapshot snapshot() const;

 private:
  struct Node {
    std::string name;
    int parent = 0;  ///< internal index (0 = synthetic root)
    int depth = 0;
    std::vector<int> children;
    std::uint64_t calls = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t cpu_ns = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
    HwCounts hw;
  };

  struct Frame {
    int node = 0;
    std::uint64_t wall0 = 0;
    std::uint64_t cpu0 = 0;
    std::uint64_t allocs0 = 0;
    std::uint64_t bytes0 = 0;
    HwCounts hw0;
  };

  [[nodiscard]] std::uint64_t wall_now() const noexcept;
  [[nodiscard]] std::uint64_t cpu_now() const noexcept;

  Options options_;
  mutable std::mutex mutex_;
  /// nodes_[0] is a synthetic root holding the top-level children; it
  /// never appears in snapshots.
  std::vector<Node> nodes_{1};
  std::vector<Frame> stack_;
  PerfCounters counters_;
};

/// RAII scope. Null profiler = fully inert (a test of a branch, not a
/// lock), so call sites can stay unconditional:
///   prof::Scope scope(config.profiler, "setup");
class Scope {
 public:
  Scope(Profiler* profiler, std::string_view name) : profiler_(profiler) {
    if (profiler_ != nullptr) profiler_->enter(name);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { close(); }

  /// Ends the scope early (idempotent) — for functions whose
  /// instrumented region ends before their frame does.
  void close() {
    if (profiler_ != nullptr) profiler_->exit();
    profiler_ = nullptr;
  }

 private:
  Profiler* profiler_;
};

}  // namespace byzrename::obs::prof

#endif  // BYZRENAME_OBS_PROF_PROFILER_H
