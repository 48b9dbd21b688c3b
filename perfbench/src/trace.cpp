#include "trace.h"

#include "bench.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "adversary/adversary.h"
#include "core/checker.h"
#include "core/fast_renaming.h"
#include "core/op_renaming.h"
#include "core/phase.h"
#include "obs/prof/alloc_profiler.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/runner.h"

namespace perfbench {

namespace {

using namespace byzrename;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t thread_allocs() { return obs::prof::AllocProfiler::thread_counts().count; }

/// Times every on_send / on_receive of the wrapped behaviour as a child
/// of the current round span. Forwards everything else untouched, so the
/// network sees the same protocol it would without the wrapper.
class TimedBehavior final : public sim::ProcessBehavior {
 public:
  TimedBehavior(std::unique_ptr<sim::ProcessBehavior> inner, bool byzantine, SpanLog& log)
      : inner_(std::move(inner)),
        send_kind_(byzantine ? SpanKind::kAdversarySend : SpanKind::kCoreSend),
        recv_kind_(byzantine ? SpanKind::kAdversaryRecv : SpanKind::kCoreRecv),
        log_(log) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    const std::uint32_t span = log_.begin(send_kind_, log_.current_round, round);
    inner_->on_send(round, out);
    log_.end(span);
  }
  void on_receive(sim::Round round, const sim::Inbox& inbox) override {
    const std::uint32_t span = log_.begin(recv_kind_, log_.current_round, round);
    inner_->on_receive(round, inbox);
    log_.end(span, static_cast<std::uint32_t>(inbox.size()));
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::optional<sim::Name> decision() const override { return inner_->decision(); }

  [[nodiscard]] const sim::ProcessBehavior& inner() const noexcept { return *inner_; }

 private:
  std::unique_ptr<sim::ProcessBehavior> inner_;
  SpanKind send_kind_;
  SpanKind recv_kind_;
  SpanLog& log_;
};

/// Brackets each Network::run_round with a round span.
class RoundSpans final : public sim::RoundHook {
 public:
  RoundSpans(SpanLog& log, std::uint32_t parent) : log_(log), parent_(parent) {}
  void on_round_begin(sim::Round round) override {
    log_.current_round = log_.begin(SpanKind::kRound, parent_, round);
  }
  void on_round_end(sim::Round) override {
    log_.end(log_.current_round);
    log_.current_round = Span::kNoParent;
  }

 private:
  SpanLog& log_;
  std::uint32_t parent_;
};

/// Voting iterations as core::run_scenario resolves them; -1 for
/// protocols without a voting loop.
int resolved_iterations(const core::ScenarioConfig& config) {
  if (config.algorithm == core::Algorithm::kOpRenamingConstantTime) {
    return core::kConstantTimeIterations;
  }
  if (config.algorithm != core::Algorithm::kOpRenaming) return -1;
  return config.options.approximation_iterations >= 0
             ? config.options.approximation_iterations
             : core::default_approximation_iterations(config.params.t);
}

int phase_group(const core::ScenarioConfig& config, sim::Round round, int iterations) {
  const core::Phase phase = core::round_phase(config.algorithm, round, iterations).phase;
  return phase == core::Phase::kVoting || phase == core::Phase::kDecision ? 1 : 0;
}

double span_s(const Span& span) { return static_cast<double>(span.end_ns - span.start_ns) * 1e-9; }

LayerTotals reduce(const core::ScenarioConfig& config, const std::vector<Span>& spans,
                   std::size_t first, int iterations) {
  LayerTotals totals;
  // Σ child time and allocations per round span, for the sim self time.
  std::vector<double> child_s(spans.size() - first, 0.0);
  std::vector<double> child_allocs(spans.size() - first, 0.0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double seconds = span_s(span);
    const auto allocs = static_cast<double>(span.allocs);
    const int group = phase_group(config, span.round, iterations);
    switch (span.kind) {
      case SpanKind::kInstance: totals.wall_s = seconds; break;
      case SpanKind::kSetup: totals.setup_s = seconds; break;
      case SpanKind::kCheck: totals.check_s = seconds; break;
      case SpanKind::kRound: totals.rounds_s += seconds; break;
      case SpanKind::kCoreSend:
        totals.core_send_s[group] += seconds;
        totals.core_allocs[group] += allocs;
        break;
      case SpanKind::kCoreRecv:
        totals.core_recv_s[group] += seconds;
        totals.core_allocs[group] += allocs;
        if (group == 1) totals.votes_received += span.items;
        break;
      case SpanKind::kAdversarySend:
        totals.adversary_send_s[group] += seconds;
        totals.adversary_allocs += allocs;
        break;
      case SpanKind::kAdversaryRecv:
        totals.adversary_recv_s += seconds;
        totals.adversary_allocs += allocs;
        break;
    }
    if (span.kind >= SpanKind::kCoreSend) {  // a behaviour span: child of a round
      child_s[span.parent - first] += seconds;
      child_allocs[span.parent - first] += allocs;
    }
  }
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.kind != SpanKind::kRound) continue;
    const int group = phase_group(config, span.round, iterations);
    totals.sim_self_s[group] += span_s(span) - child_s[i - first];
    totals.sim_allocs[group] += static_cast<double>(span.allocs) - child_allocs[i - first];
  }
  return totals;
}

}  // namespace

const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kInstance: return "instance";
    case SpanKind::kSetup: return "setup";
    case SpanKind::kRound: return "round";
    case SpanKind::kCheck: return "check";
    case SpanKind::kCoreSend: return "core.send";
    case SpanKind::kCoreRecv: return "core.recv";
    case SpanKind::kAdversarySend: return "adversary.send";
    case SpanKind::kAdversaryRecv: return "adversary.recv";
  }
  return "unknown";
}

std::uint32_t SpanLog::begin(SpanKind kind, std::uint32_t parent, std::int32_t round) {
  Span span;
  span.kind = kind;
  span.instance = instance;
  span.parent = parent;
  span.round = round;
  span.allocs = thread_allocs();
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::end(std::uint32_t index, std::uint32_t items) {
  Span& span = spans_[index];
  span.end_ns = now_ns();
  span.allocs = thread_allocs() - span.allocs;
  span.items = items;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "span,parent,instance,name,round,items,start_ns,end_ns,allocs\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << ',' << (span.parent == Span::kNoParent ? -1 : static_cast<long>(span.parent))
        << ',' << span.instance << ',' << to_string(span.kind) << ',' << span.round << ','
        << span.items << ',' << span.start_ns << ',' << span.end_ns << ',' << span.allocs
        << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

TracedOutcome run_traced(const core::ScenarioConfig& config, SpanLog& log,
                         std::uint32_t instance) {
  const sim::FaultPlan& plan = config.fault_plan;
  if (!plan.forges.empty() || !plan.restarts.empty() || plan.fault_overshoot != 0) {
    throw std::invalid_argument("run_traced: forge, restart and overshoot plans unsupported");
  }
  const sim::SystemParams& params = config.params;
  const int faults = config.actual_faults >= 0 ? config.actual_faults : params.t;
  const int correct_count = params.n - faults;
  const int iterations = resolved_iterations(config);
  const std::size_t first = log.spans().size();
  log.instance = instance;
  const std::uint32_t whole = log.begin(SpanKind::kInstance, Span::kNoParent, 0);

  // Set-up, in the order core::run_scenario performs it: ids, correct
  // behaviours, the adversary team, the network and its injector.
  const std::uint32_t setup = log.begin(SpanKind::kSetup, whole, 0);
  std::vector<sim::Id> correct_ids = config.correct_ids;
  std::vector<sim::Id> byz_ids;
  if (correct_ids.empty()) {
    const std::vector<sim::Id> all = core::generate_ids(params.n, config.seed * 7919 + 17);
    correct_ids.assign(all.begin(), all.begin() + correct_count);
    byz_ids.assign(all.begin() + correct_count, all.end());
  } else {
    for (const sim::Id id : core::generate_ids(params.n, config.seed * 104729 + 29)) {
      if (static_cast<int>(byz_ids.size()) == faults) break;
      if (std::find(correct_ids.begin(), correct_ids.end(), id) == correct_ids.end()) {
        byz_ids.push_back(id);
      }
    }
  }
  std::sort(correct_ids.begin(), correct_ids.end());

  core::RenamingOptions options = config.options;
  if (config.algorithm == core::Algorithm::kOpRenamingConstantTime) {
    options.approximation_iterations = core::kConstantTimeIterations;
  }
  std::vector<std::unique_ptr<sim::ProcessBehavior>> behaviors;
  for (int i = 0; i < correct_count; ++i) {
    behaviors.push_back(std::make_unique<TimedBehavior>(
        core::make_correct_behavior(config.algorithm, params,
                                    correct_ids[static_cast<std::size_t>(i)], options),
        false, log));
  }
  adversary::AdversaryEnv env;
  env.params = params;
  env.algorithm = config.algorithm;
  env.options = options;
  for (int i = 0; i < correct_count; ++i) {
    env.correct.emplace_back(i, correct_ids[static_cast<std::size_t>(i)]);
  }
  for (int i = correct_count; i < params.n; ++i) env.byz_indices.push_back(i);
  env.byz_ids = byz_ids;
  env.seed = config.seed;
  for (auto& faulty : adversary::find_adversary(config.adversary)(env)) {
    behaviors.push_back(std::make_unique<TimedBehavior>(std::move(faulty), true, log));
  }
  std::vector<bool> byzantine(static_cast<std::size_t>(params.n), false);
  for (int i = correct_count; i < params.n; ++i) byzantine[static_cast<std::size_t>(i)] = true;
  sim::Network network(std::move(behaviors), std::move(byzantine),
                       sim::Rng(config.seed ^ 0x9e3779b97f4a7c15ull));
  std::optional<sim::FaultInjector> injector;
  if (!plan.empty()) {
    injector.emplace(plan, sim::Rng::derive_stream(config.seed, 0xFA017ull));
    network.attach_fault_injector(&*injector);
  }
  log.end(setup);

  RoundSpans hook(log, whole);
  const int budget = core::expected_steps(config.algorithm, params, options) + config.extra_rounds;
  const sim::RunResult run = sim::run_to_completion(network, budget, {}, &hook);

  const std::uint32_t check = log.begin(SpanKind::kCheck, whole, 0);
  std::vector<core::NamedProcess> named;
  for (int i = 0; i < correct_count; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    named.push_back({correct_ids[slot], run.decisions[slot], i, run.decide_rounds[slot], false});
  }
  const core::CheckReport report =
      core::check_renaming(named, core::namespace_size(config.algorithm, params));
  log.end(check);
  log.end(whole);

  TracedOutcome outcome;
  outcome.decisions = run.decisions;
  outcome.messages = run.metrics.total_messages();
  outcome.bits = run.metrics.total_bits();
  outcome.all_ok = report.all_ok();
  for (int i = 0; i < correct_count; ++i) {
    const auto& timed = static_cast<const TimedBehavior&>(network.behavior(i));
    if (const auto* op = dynamic_cast<const core::OpRenamingProcess*>(&timed.inner())) {
      outcome.rejected += op->rejected_votes();
    } else if (const auto* fast = dynamic_cast<const core::FastRenamingProcess*>(&timed.inner())) {
      outcome.rejected += fast->rejected_echoes();
    }
  }
  outcome.layers = reduce(config, log.spans(), first, iterations);
  return outcome;
}

std::string fidelity_mismatch(const TracedOutcome& traced, const core::ScenarioResult& reference) {
  if (traced.decisions != reference.run.decisions) return "decisions differ";
  if (traced.messages != reference.run.metrics.total_messages()) return "message totals differ";
  if (traced.bits != reference.run.metrics.total_bits()) return "bit totals differ";
  if (traced.rejected != reference.total_rejected) return "rejected-vote counts differ";
  if (traced.all_ok != reference.report.all_ok()) return "checker verdicts differ";
  return {};
}

bool traced_pair(const core::ScenarioConfig& config, SpanLog& log, std::uint32_t instance,
                 bool traced_first, Report& report, double& untraced_s, double& traced_s,
                 TracedOutcome& outcome) {
  core::ScenarioResult reference;
  const auto untraced = [&] {
    const auto start = Clock::now();
    reference = core::run_scenario(config);
    untraced_s = seconds_since(start);
  };
  const auto traced = [&] {
    const auto start = Clock::now();
    outcome = run_traced(config, log, instance);
    traced_s = seconds_since(start);
  };
  if (traced_first) {
    traced();
    untraced();
  } else {
    untraced();
    traced();
  }
  const std::string mismatch = fidelity_mismatch(outcome, reference);
  if (!mismatch.empty()) {
    report.wrong("traced run diverged from core::run_scenario (seed " +
                 std::to_string(config.seed) + "): " + mismatch);
    return false;
  }
  return true;
}

void write_spans(const SpanLog& log, const Options& options, Report& report) {
  const std::string path = options.spans_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".spans.csv";
  if (log.write_csv(path)) {
    report.notes.push_back("spans: " + path);
  } else {
    report.notes.push_back("spans: could not write " + path);
  }
}

void report_layers(Report& report, const std::vector<TracedOutcome>& traced) {
  double rejected = 0;
  double votes = 0;
  for (const TracedOutcome& outcome : traced) {
    rejected += static_cast<double>(outcome.rejected);
    votes += outcome.layers.votes_received;
  }
  // Reports the median over instances of one per-instance figure.
  const auto put = [&](const std::string& name, auto field) {
    std::vector<double> values;
    for (const TracedOutcome& outcome : traced) values.push_back(field(outcome));
    report.metrics[name] = median(values);
  };
  const char* const groups[] = {"idsel", "vote"};
  for (int g = 0; g < 2; ++g) {
    const std::string group = groups[g];
    put("sim.self_s." + group, [&](const TracedOutcome& o) { return o.layers.sim_self_s[g]; });
    put("sim.allocs." + group, [&](const TracedOutcome& o) { return o.layers.sim_allocs[g]; });
    put("adversary.send_s." + group,
        [&](const TracedOutcome& o) { return o.layers.adversary_send_s[g]; });
    put("core.send_s." + group, [&](const TracedOutcome& o) { return o.layers.core_send_s[g]; });
    put("core.recv_s." + group, [&](const TracedOutcome& o) { return o.layers.core_recv_s[g]; });
    put("core.allocs." + group, [&](const TracedOutcome& o) { return o.layers.core_allocs[g]; });
  }
  put("adversary.recv_s", [](const TracedOutcome& o) { return o.layers.adversary_recv_s; });
  put("adversary.allocs", [](const TracedOutcome& o) { return o.layers.adversary_allocs; });
  put("sim.messages", [](const TracedOutcome& o) { return static_cast<double>(o.messages); });
  put("sim.bytes", [](const TracedOutcome& o) { return static_cast<double>(o.bits) / 8.0; });
  put("core.setup_s", [](const TracedOutcome& o) { return o.layers.setup_s; });
  put("core.check_s", [](const TracedOutcome& o) { return o.layers.check_s; });
  put("trace.coverage", [](const TracedOutcome& o) { return o.layers.coverage(); });
  report.metrics["core.vote_reject_ratio"] = votes > 0 ? rejected / votes : 0;
}

}  // namespace perfbench
