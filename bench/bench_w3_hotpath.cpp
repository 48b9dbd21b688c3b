// W3 — hot-path benchmark with allocation accounting (engineering).
//
// Pins the two measured hot paths of EXPERIMENTS.md W1 — broadcast
// fan-out in sim::Network and exact-rational trimmed averaging — plus
// one process's id selection and full Alg. 1 runs, and emits
// bench/out/BENCH_hotpath.json (gitignored live output) via
// BenchReporter so every future PR can diff its perf against this one.
// The single tracked copy is the committed baseline
// bench/baseline/BENCH_hotpath.json; CI compares the id_selection_n128
// row and the N=64/128 macro cases against it (>25% regression fails
// the job; see docs/PERFORMANCE.md).
//
// Heap allocations are counted through the shared obs::AllocProfiler
// interposition (obs/prof/alloc_interpose.h, included by exactly this
// translation unit), which makes allocs_per_round/allocs_per_run exact
// and hardware-independent — the stable half of the baseline.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/id_selection.h"
#include "core/rank_approx.h"
#include "core/voting_kernel.h"
#include "exp/progress.h"
#include "numeric/rational.h"
#include "obs/bench_report.h"
#include "obs/http/exposition.h"
#include "obs/http/http_server.h"
#include "obs/prof/alloc_interpose.h"
#include "obs/prof/profiler.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace byzrename;
using numeric::Rational;
using Clock = std::chrono::steady_clock;

std::uint64_t alloc_count() { return obs::prof::AllocProfiler::process_counts().count; }

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

struct Measurement {
  double unit_seconds = 0;  ///< wall-clock per round / step / run
  double unit_allocs = 0;   ///< heap allocations per round / step / run
};

/// Broadcasts a realistic voting-phase payload every round: N rank
/// entries with exact-rational ranks, the message shape Alg. 1 floods
/// N-to-N during its entire voting phase.
class FanoutBehavior final : public sim::ProcessBehavior {
 public:
  explicit FanoutBehavior(int n) {
    const Rational d = core::delta({.n = n, .t = n / 4});
    msg_.ids.reserve(static_cast<std::size_t>(n));
    msg_.exacts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) msg_.push_exact(i + 1, Rational(i + 1) * d);
  }

  void on_send(sim::Round, sim::Outbox& out) override { out.broadcast(sim::PayloadRef(msg_)); }
  void on_receive(sim::Round, const sim::Inbox& inbox) override { delivered_ += inbox.size(); }
  [[nodiscard]] bool done() const override { return false; }

 private:
  sim::RanksMsg msg_;
  std::size_t delivered_ = 0;
};

/// One synchronous round of all-to-all RanksMsg broadcast: N sends,
/// N^2 deliveries, the per-receiver link ordering pass.
Measurement bench_fanout(int n, int rounds) {
  std::vector<std::unique_ptr<sim::ProcessBehavior>> behaviors;
  behaviors.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) behaviors.push_back(std::make_unique<FanoutBehavior>(n));
  sim::Network network(std::move(behaviors), std::vector<bool>(static_cast<std::size_t>(n), false),
                       sim::Rng(7));
  // Warm one round so pooled buffers reach steady state before counting.
  network.run_round(1);
  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  for (int r = 0; r < rounds; ++r) network.run_round(r + 2);
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  return {elapsed / rounds, static_cast<double>(allocs) / rounds};
}

/// One Alg. 3 voting step over N validated rank arrays — the exact
/// rational kernel W1 blames for the ms-per-step cost at N=64.
Measurement bench_trimmed_mean(int n, int steps) {
  const int t = n / 4;
  const sim::SystemParams params{.n = n, .t = t};
  const Rational d = core::delta(params);

  core::RankMap mine;
  std::set<sim::Id> accepted;
  for (int i = 0; i < n; ++i) {
    accepted.insert(i + 1);
    mine.emplace(i + 1, Rational(i + 1) * d);
  }
  const std::vector<core::RankMap> votes(static_cast<std::size_t>(n), mine);

  {  // warm-up
    std::set<sim::Id> working = accepted;
    (void)core::approximate(params, working, mine, votes);
  }
  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  for (int s = 0; s < steps; ++s) {
    std::set<sim::Id> working = accepted;
    const core::ApproximateResult result = core::approximate(params, working, mine, votes);
    if (result.new_ranks.empty()) std::abort();  // defeat dead-code elimination
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  return {elapsed / steps, static_cast<double>(allocs) / steps};
}

/// One process's id selection (Alg. 1 steps 1-4) on full fault-free
/// inboxes: every one of the N links announces one id in step 1, then
/// Echoes and Readys all N ids in steps 2-4, each message one shared
/// payload as the network delivers it. Times the whole selection,
/// broadcasts included, in @p blocks blocks of @p selections, and aborts
/// unless every id is accepted.
Measurement bench_id_selection(int n, int blocks, int selections) {
  const sim::SystemParams params{.n = n, .t = (n - 1) / 3};
  std::vector<sim::Inbox> inboxes(4);
  for (int link = 0; link < n; ++link) inboxes[0].push_back({link, sim::IdMsg{link + 1}});
  std::vector<sim::PayloadRef> echoes;
  std::vector<sim::PayloadRef> readys;
  for (int id = 1; id <= n; ++id) {
    echoes.emplace_back(sim::EchoMsg{id});
    readys.emplace_back(sim::ReadyMsg{id});
  }
  for (int link = 0; link < n; ++link) {
    for (int i = 0; i < n; ++i) {
      inboxes[1].push_back({link, echoes[static_cast<std::size_t>(i)]});
      inboxes[2].push_back({link, readys[static_cast<std::size_t>(i)]});
      inboxes[3].push_back({link, readys[static_cast<std::size_t>(i)]});
    }
  }
  const auto select = [&] {
    core::IdSelection selection(params, 1);
    for (sim::Round step = 1; step <= 4; ++step) {
      sim::Outbox out(false);
      selection.on_send(step, out);
      selection.on_receive(step, inboxes[static_cast<std::size_t>(step - 1)]);
    }
    if (selection.accepted().size() != static_cast<std::size_t>(n)) std::abort();
  };

  select();  // warm-up
  // The median over blocks, so one block slowed by a busy host does not
  // move the gated figure.
  std::vector<double> block_s;
  const std::uint64_t allocs_before = alloc_count();
  for (int block = 0; block < blocks; ++block) {
    const auto start = Clock::now();
    for (int s = 0; s < selections; ++s) select();
    block_s.push_back(seconds_since(start) / selections);
  }
  const std::uint64_t allocs = alloc_count() - allocs_before;
  return {median(block_s), static_cast<double>(allocs) / (blocks * selections)};
}

/// Full Alg. 1 run (selection + voting + decision) under the split-world
/// adversary — the macro case the CI perf gate tracks at N=64. With
/// @p profiler attached, the run is phase-attributed through the full
/// obs/prof plane (scope tree + per-round phase hooks), which is how
/// the profiler-overhead gate measures what `byzrename --profile`
/// costs.
core::ScenarioConfig macro_config(int n, obs::prof::Profiler* profiler = nullptr) {
  core::ScenarioConfig config;
  config.params = {.n = n, .t = (n - 1) / 3};
  config.adversary = "split";
  config.seed = 21;
  config.profiler = profiler;
  return config;
}

/// Wall-clock seconds of one macro run; aborts unless every property holds.
double time_macro_run(const core::ScenarioConfig& config) {
  const auto start = Clock::now();
  const core::ScenarioResult result = core::run_scenario(config);
  const double elapsed = seconds_since(start);
  if (!result.report.all_ok()) std::abort();
  return elapsed;
}

/// Heap allocations of one macro run (deterministic for a config).
double macro_allocs(const core::ScenarioConfig& config) {
  const std::uint64_t allocs_before = alloc_count();
  (void)time_macro_run(config);
  return static_cast<double>(alloc_count() - allocs_before);
}

/// Median seconds of @p reps runs and the allocation count of one run.
/// A median, not a best-of, so the CI gate compares a typical run rather
/// than the luckiest one.
Measurement bench_macro_op(int n, int reps) {
  const core::ScenarioConfig config = macro_config(n);
  const double allocs = macro_allocs(config);
  std::vector<double> run_s;
  for (int rep = 0; rep < reps; ++rep) run_s.push_back(time_macro_run(config));
  return {median(run_s), allocs};
}

/// One warmed fixed-kernel voting step over N full rank votes, driven
/// directly against FixedVotingEngine — and the PR's zero-allocation
/// guarantee, enforced: any heap allocation in the scored steps aborts
/// the bench (and with it the CI perf gate).
Measurement bench_voting_round(int n, int steps) {
  const int t = (n - 1) / 3;
  const sim::SystemParams params{.n = n, .t = t};
  core::RenamingOptions options;
  core::FixedVotingEngine engine(params, options,
                                 core::default_approximation_iterations(t));
  if (!engine.enabled()) std::abort();

  std::set<sim::Id> accepted;
  for (int i = 0; i < n; ++i) accepted.insert(i + 1);
  engine.assign_initial_ranks(accepted);
  const std::set<sim::Id> timely = accepted;

  // N identical honest votes, one per link, sharing a single payload —
  // the inbox shape of a fault-free voting round.
  const sim::PayloadRef vote = engine.encode_ranks();
  sim::Inbox inbox;
  for (int link = 0; link < n; ++link) inbox.push_back({link, vote});

  int rejected = 0;
  // Two warm-up steps bring every pooled buffer (including the swapped
  // next-generation rank arrays) to steady-state capacity.
  engine.step(inbox, timely, accepted, rejected);
  engine.step(inbox, timely, accepted, rejected);

  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  for (int s = 0; s < steps; ++s) engine.step(inbox, timely, accepted, rejected);
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  if (allocs != 0) {
    std::fprintf(stderr,
                 "voting_round_n%d: %llu heap allocations in %d steady-state "
                 "voting steps (expected 0)\n",
                 n, static_cast<unsigned long long>(allocs), steps);
    std::abort();
  }
  if (accepted.size() != static_cast<std::size_t>(n)) std::abort();
  return {elapsed / steps, static_cast<double>(allocs) / steps};
}

/// The warmed fixed-kernel voting step again, but with every scored
/// step bracketed by an obs::prof::Scope on a live Profiler — the
/// steady-state cost of phase attribution itself. The warm-up steps
/// also run under the scope so the node is interned (its one-time
/// allocation) before counting starts; after that, a profiled voting
/// step must still allocate exactly zero bytes, enforced with the same
/// abort gate as the unprofiled row.
Measurement bench_voting_round_prof(int n, int steps) {
  const int t = (n - 1) / 3;
  const sim::SystemParams params{.n = n, .t = t};
  core::RenamingOptions options;
  core::FixedVotingEngine engine(params, options,
                                 core::default_approximation_iterations(t));
  if (!engine.enabled()) std::abort();

  std::set<sim::Id> accepted;
  for (int i = 0; i < n; ++i) accepted.insert(i + 1);
  engine.assign_initial_ranks(accepted);
  const std::set<sim::Id> timely = accepted;

  const sim::PayloadRef vote = engine.encode_ranks();
  sim::Inbox inbox;
  for (int link = 0; link < n; ++link) inbox.push_back({link, vote});

  obs::prof::Profiler profiler;
  int rejected = 0;
  for (int warm = 0; warm < 2; ++warm) {
    obs::prof::Scope scope(&profiler, "voting step");
    engine.step(inbox, timely, accepted, rejected);
  }

  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  for (int s = 0; s < steps; ++s) {
    obs::prof::Scope scope(&profiler, "voting step");
    engine.step(inbox, timely, accepted, rejected);
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  if (allocs != 0) {
    std::fprintf(stderr,
                 "voting_round_prof_n%d: %llu heap allocations in %d profiled "
                 "steady-state voting steps (expected 0 — the profiler must "
                 "stay allocation-free once its nodes are interned)\n",
                 n, static_cast<unsigned long long>(allocs), steps);
    std::abort();
  }
  if (profiler.snapshot().nodes.empty()) std::abort();
  return {elapsed / steps, static_cast<double>(allocs) / steps};
}

}  // namespace

int main() {
  obs::BenchReporter reporter("BENCH_hotpath.json");

  std::printf("W3 — hot-path baseline (fan-out, trimmed mean, full Alg. 1)\n");
  std::printf("%-22s %14s %16s\n", "case", "time/unit", "allocs/unit");

  const auto emit = [&](const std::string& label, const Measurement& m, const char* unit,
                        double scale) {
    std::printf("%-22s %11.3f %s %16.1f\n", label.c_str(), m.unit_seconds * scale, unit,
                m.unit_allocs);
    reporter.write_series(label, {{"seconds_per_unit", m.unit_seconds},
                                  {"allocs_per_unit", m.unit_allocs}});
  };

  for (const int n : {16, 64, 128}) {
    emit("fanout_n" + std::to_string(n), bench_fanout(n, n >= 128 ? 20 : 50), "ms/round", 1e3);
  }
  for (const int n : {16, 64}) {
    emit("trimmed_mean_n" + std::to_string(n), bench_trimmed_mean(n, n >= 64 ? 10 : 40),
         "ms/step", 1e3);
  }
  emit("id_selection_n128", bench_id_selection(128, 7, 50), "ms/sel ", 1e3);
  for (const int n : {16, 64, 128, 256}) {
    const int reps = n <= 64 ? 5 : n == 128 ? 3 : 1;
    emit("macro_op_n" + std::to_string(n), bench_macro_op(n, reps), "s/run ", 1.0);
  }

  {
    // The profiler-overhead gate (docs/PERFORMANCE.md): the N=64 macro
    // case with a live obs/prof Profiler attached — scope tree,
    // per-round phase hooks, hardware counters where available — run
    // as interleaved pairs with the unprofiled case, alternating which
    // goes first. Each pair's two runs are back to back, so a shift in
    // host speed between pairs cancels out of that pair's difference;
    // the median difference must stay within +5% of the median
    // unprofiled run plus a 2 ms absolute epsilon that absorbs timer
    // jitter on the ~150 ms base.
    constexpr int kPairs = 15;
    obs::prof::Profiler profiler;
    const core::ScenarioConfig plain_config = macro_config(64);
    const core::ScenarioConfig prof_config = macro_config(64, &profiler);
    const double prof_allocs = macro_allocs(prof_config);
    std::vector<double> plain_s;
    std::vector<double> prof_s;
    std::vector<double> extra_s;
    for (int pair = 0; pair < kPairs; ++pair) {
      if (pair % 2 == 0) plain_s.push_back(time_macro_run(plain_config));
      prof_s.push_back(time_macro_run(prof_config));
      if (pair % 2 == 1) plain_s.push_back(time_macro_run(plain_config));
      extra_s.push_back(prof_s.back() - plain_s.back());
    }
    const double plain = median(plain_s);
    const double extra = median(extra_s);
    emit("macro_op_prof_n64", {median(prof_s), prof_allocs}, "s/run ", 1.0);
    const double bound = plain * 0.05 + 2e-3;
    if (extra > bound) {
      std::fprintf(stderr,
                   "macro_op_prof_n64: profiling added a median %.6f s per run over "
                   "%d interleaved pairs (unprofiled median %.6f s; bound %.6f s = "
                   "5%% + 2 ms) — the profiler hot path got too expensive\n",
                   extra, kPairs, plain, bound);
      std::abort();
    }
  }

  for (const int n : {128, 1024}) {
    emit("voting_round_n" + std::to_string(n), bench_voting_round(n, n >= 1024 ? 5 : 20),
         "ms/step", 1e3);
  }
  // Phase attribution on the smallest hot unit we have: a profiled
  // steady-state voting step must cost microseconds more, not allocate
  // (bench_voting_round_prof aborts otherwise).
  emit("voting_round_prof_n128", bench_voting_round_prof(128, 20), "ms/step", 1e3);
  if (const char* full = std::getenv("BYZRENAME_BENCH_N1024");
      full != nullptr && full[0] == '1') {
    // The full N=1024 Alg. 1 instance (split adversary): minutes of
    // wall clock on one core, so opt-in rather than part of the tracked
    // baseline. docs/PERFORMANCE.md records a measured reference run.
    emit("macro_op_n1024", bench_macro_op(1024, 1), "s/run ", 1.0);
  }

  {
    // The live-telemetry overhead row (docs/OBSERVABILITY.md): the N=64
    // macro case again, but with an idle obs/http server thread holding
    // the full exposition plane (hub + /metrics + /healthz + /progress)
    // on an ephemeral port. The server only poll()s between scrapes, so
    // this should track the plain case within noise — the acceptance
    // bound is <= +3%, and the alloc count is identical by construction
    // (an idle accept loop allocates nothing). Run as interleaved pairs
    // with the plain case, alternating which goes first, like the
    // profiler gate above; macro_op_serve_base_n64 reports the plain
    // half, so CI compares medians of the same pairs.
    constexpr int kPairs = 15;
    exp::ProgressTracker progress;
    obs::ExpositionHub hub;
    hub.add_writer([&progress](std::ostream& os) { progress.write_prometheus(os); });
    hub.add_writer([](std::ostream& os) { obs::write_process_metrics(os); });
    const core::ScenarioConfig config = macro_config(64);
    const auto serving = [&](const auto& measure) {
      obs::HttpServer server;
      obs::mount_prometheus(server, hub);
      obs::mount_healthz(server);
      obs::mount_json(server, "/progress",
                      [&progress](std::ostream& os) { progress.write_progress_json(os); });
      server.start(0);
      const double value = measure();
      server.stop();
      return value;
    };
    const double serve_allocs = serving([&] { return macro_allocs(config); });
    std::vector<double> plain_s;
    std::vector<double> serve_s;
    for (int pair = 0; pair < kPairs; ++pair) {
      if (pair % 2 == 0) plain_s.push_back(time_macro_run(config));
      serve_s.push_back(serving([&] { return time_macro_run(config); }));
      if (pair % 2 == 1) plain_s.push_back(time_macro_run(config));
    }
    emit("macro_op_serve_n64", {median(serve_s), serve_allocs}, "s/run ", 1.0);
    emit("macro_op_serve_base_n64", {median(plain_s), macro_allocs(config)}, "s/run ", 1.0);
  }

  reporter.announce(std::cout);
  return 0;
}
