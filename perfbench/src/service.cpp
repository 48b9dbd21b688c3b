// service_open: svc::Scheduler under an open-loop arrival schedule.
// Three tenants submit single instances of the byzrenamed soak mix at
// fixed due times, whatever the service does, so a stall shows up as
// latency of the instances due after it. Each instance is timed from
// its due time to its completion; a refused submit counts as failed and
// as missing the latency limit.
//
// Phases, in order: three fixed rates (low/mid/high, all below the
// capacity of the workers on a 4-core machine), run as interleaved
// half-second segments so that each rate samples the whole phase rather
// than one stretch of a noisy host, with a saturation burst (submitted as
// fast as admission takes it, for the service's throughput) after each
// round of segments; then a fixed-count bisection for the highest rate that meets the p99 limit
// without a growing backlog. Afterwards every verdict is compared byte
// for byte with a serial exp::evaluate_scenario of the same scenario,
// which also times each instance's execution demand.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/algorithm.h"
#include "exp/repro.h"
#include "obs/prof/alloc_profiler.h"
#include "sim/rng.h"
#include "svc/api.h"
#include "svc/scheduler.h"

namespace perfbench {

namespace {

using namespace byzrename;

const char* const kTenants[] = {"alpha", "beta", "gamma"};
constexpr std::size_t kTenantCount = 3;
/// Distinct scenarios; submissions cycle through them, so the serial
/// reference pass stays small.
constexpr std::size_t kPool = 512;
constexpr int kSetupReps = 5;
constexpr std::size_t kWarmup = 64;

struct FixedRate {
  const char* name;
  double per_s;
};
constexpr FixedRate kRates[] = {
    {"low", 300},
    {"mid", 600},
    {"high", 1000},
};
/// Share of --seconds spent at the fixed rates, split evenly between
/// them in segments of kSegmentS.
constexpr double kFixedShare = 0.45;
constexpr double kSegmentS = 0.5;
/// Latency limit on p99 for svc.max_rate.
constexpr double kLimitS = 0.050;
constexpr int kBisectSteps = 6;
constexpr double kBisectHiFactor = 4.0;
/// Instances per saturation burst, per second of --seconds.
constexpr double kBurstPerSecond = 25;
constexpr std::size_t kBurstBatch = 64;
/// Submissions per bisection probe, per second of --seconds.
constexpr double kProbePerSecond = 100;
/// A run whose generator was later than this at p99 did not offer the
/// rate it claims: its outputs may be right, but its figures are marked
/// invalid and a claim must not use them.
constexpr double kMaxLateS = 0.005;
constexpr std::size_t kBacklogSampleEvery = 32;

std::uint64_t process_allocs() { return obs::prof::AllocProfiler::process_counts().count; }

/// The byzrenamed soak mix: op/const/fast under idflood/split/asymflood,
/// plus the order-break ablation with vote validation off (a violation
/// is its expected verdict).
exp::ReproScenario pool_scenario(std::uint64_t seed, std::size_t index) {
  exp::ReproScenario scenario;
  switch (index % 4) {
    case 0:
      scenario.algorithm = core::Algorithm::kOpRenaming;
      scenario.params = {.n = 10, .t = 3};
      scenario.adversary = "idflood";
      break;
    case 1:
      scenario.algorithm = core::Algorithm::kOpRenamingConstantTime;
      scenario.params = {.n = 16, .t = 3};
      scenario.adversary = "split";
      break;
    case 2:
      scenario.algorithm = core::Algorithm::kFastRenaming;
      scenario.params = {.n = 11, .t = 2};
      scenario.adversary = "asymflood";
      break;
    default:
      scenario.algorithm = core::Algorithm::kOpRenaming;
      scenario.params = {.n = 10, .t = 3};
      scenario.adversary = "orderbreak";
      scenario.validate_votes = false;
      break;
  }
  scenario.seed = sim::Rng::derive_stream(seed, index);
  return scenario;
}

std::string normal_form(const exp::ReproScenario& scenario, const exp::ReproVerdict& verdict) {
  std::ostringstream os;
  svc::write_verdict_document(os, scenario, verdict);
  return os.str();
}

/// Σ of the per-tenant CPU counters the scheduler exposes, in seconds.
double scrape_cpu_s(const svc::Scheduler& scheduler) {
  std::ostringstream os;
  scheduler.write_metrics(os);
  std::istringstream lines(os.str());
  const std::string family = "byzrenamed_tenant_cpu_microseconds_total{";
  double micros = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.compare(0, family.size(), family) != 0) continue;
    micros += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return micros * 1e-6;
}

std::size_t backlog(svc::Scheduler& scheduler) {
  std::size_t pending = 0;
  for (const char* tenant : kTenants) {
    pending += scheduler.poll(tenant, std::numeric_limits<std::uint64_t>::max(), 0).pending;
  }
  return pending;
}

struct Phase {
  std::vector<double> latency_s;  ///< per submission; +inf when refused
  std::vector<double> late_s;
  std::vector<double> submit_s;
  std::vector<std::size_t> pool_index;
  std::size_t refused = 0;
  std::size_t backlog_max = 0;
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  double wall_s = 0;
};

/// Submits @p count instances at @p rate per second on an open-loop
/// schedule starting now, then waits for the service to go idle.
Phase run_phase(svc::Scheduler& scheduler, const std::vector<Clock::time_point>& completions,
                const std::vector<exp::ReproScenario>& pool, double rate, std::size_t count,
                std::size_t& next_submission) {
  Phase phase;
  std::vector<std::uint64_t> ids(count, 0);
  std::vector<Clock::time_point> due(count);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(static_cast<double>(i) / rate));
    std::this_thread::sleep_until(due[i]);
    const std::size_t submission = next_submission++;
    const std::size_t index = submission % pool.size();
    const auto t0 = Clock::now();
    const svc::Scheduler::SubmitOutcome outcome =
        scheduler.submit(kTenants[submission % kTenantCount], {pool[index]});
    const auto t1 = Clock::now();
    phase.late_s.push_back(std::chrono::duration<double>(t0 - due[i]).count());
    phase.submit_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    phase.pool_index.push_back(index);
    if (outcome.admitted) {
      ids[i] = outcome.first_id;
    } else {
      ++phase.refused;
    }
    if (i % kBacklogSampleEvery == 0 || i + 1 == count) {
      const std::size_t pending = backlog(scheduler);
      phase.backlog_max = std::max(phase.backlog_max, pending);
      if (i <= count / 2) phase.backlog_mid = pending;
      if (i + 1 == count) phase.backlog_end = pending;
    }
  }
  scheduler.wait_idle();
  phase.wall_s = seconds_since(start);
  for (std::size_t i = 0; i < count; ++i) {
    phase.latency_s.push_back(
        ids[i] == 0 ? std::numeric_limits<double>::infinity()
                    : std::chrono::duration<double>(completions[ids[i]] - due[i]).count());
  }
  return phase;
}

/// Folds one segment of a fixed rate into that rate's totals.
void append(Phase& total, const Phase& segment) {
  const auto concat = [](auto& into, const auto& from) {
    into.insert(into.end(), from.begin(), from.end());
  };
  concat(total.latency_s, segment.latency_s);
  concat(total.late_s, segment.late_s);
  concat(total.submit_s, segment.submit_s);
  concat(total.pool_index, segment.pool_index);
  total.refused += segment.refused;
  total.backlog_max = std::max(total.backlog_max, segment.backlog_max);
  total.wall_s += segment.wall_s;
}

/// A latency in ms for the report; a refused submit (+inf) is reported
/// as a latency of one hour so the figure stays a number.
double report_ms(double seconds) { return std::isfinite(seconds) ? seconds * 1e3 : 3.6e6; }

}  // namespace

Report run_service(const Options& options) {
  Report report;
  const int hardware = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // The generator (this thread) and the dispatcher take one core each.
  const int workers = std::max(1, hardware - 2);
  const auto cycles = static_cast<std::size_t>(
      std::max(1.0, std::round(kFixedShare * options.seconds / (kSegmentS * std::size(kRates)))));
  std::size_t planned = kWarmup;
  for (const FixedRate& rate : kRates) {
    planned += cycles * static_cast<std::size_t>(rate.per_s * kSegmentS);
  }
  const auto probe_count =
      static_cast<std::size_t>(std::max(100.0, kProbePerSecond * options.seconds));
  planned += probe_count * kBisectSteps;
  const auto burst_count = static_cast<std::size_t>(
      std::max(static_cast<double>(kBurstBatch), kBurstPerSecond * options.seconds));
  planned += burst_count * cycles;

  std::vector<exp::ReproScenario> pool;
  // Completion instants by instance id, written by the completion hook
  // under the scheduler mutex and read after wait_idle.
  std::vector<Clock::time_point> completions;
  std::unique_ptr<svc::Scheduler> service;
  report.metrics["setup_s"] = median_setup_seconds(kSetupReps, [&] {
    service.reset();
    Digest digest;
    pool.clear();
    for (std::size_t j = 0; j < kPool; ++j) {
      pool.push_back(pool_scenario(options.seed, j));
      std::ostringstream os;
      svc::write_verdict_document(os, pool.back(), exp::ReproVerdict{});
      digest.add(os.str());
    }
    for (const FixedRate& rate : kRates) digest.add(static_cast<std::uint64_t>(rate.per_s));
    report.input_digest = digest.value();
    completions.assign(planned + 1, Clock::time_point{});
    svc::SchedulerOptions scheduler_options;
    scheduler_options.threads = workers;
    scheduler_options.on_complete = [&completions](const svc::InstanceResult& result, double) {
      completions[result.id] = Clock::now();
    };
    service = std::make_unique<svc::Scheduler>(scheduler_options);
    for (const char* tenant : kTenants) service->open_session(tenant);
    // Warm-up burst: dispatcher, workers and the adversary registry.
    for (std::size_t i = 0; i < kWarmup; ++i) {
      (void)service->submit(kTenants[i % kTenantCount], {pool[i]});
    }
    service->wait_idle();
  });
  svc::Scheduler& scheduler = *service;
  std::size_t next_submission = kWarmup;

  // Saturation: completed instances per second with the queue kept full.
  // A refused batch is retried after a millisecond (client backpressure),
  // not counted as failed: the burst deliberately offers more than the
  // service can take.
  std::vector<double> saturated;
  const auto saturate = [&] {
    const auto start = Clock::now();
    for (std::size_t sent = 0; sent < burst_count;) {
      std::vector<exp::ReproScenario> batch;
      const char* tenant = kTenants[(sent / kBurstBatch) % kTenantCount];
      for (std::size_t i = 0; i < kBurstBatch && sent + i < burst_count; ++i) {
        batch.push_back(pool[(next_submission + i) % pool.size()]);
      }
      if (scheduler.submit(tenant, batch).admitted) {
        sent += batch.size();
        next_submission += batch.size();
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    scheduler.wait_idle();
    saturated.push_back(static_cast<double>(burst_count) / seconds_since(start));
  };

  // Fixed rates, each round of segments followed by one burst. CPU time
  // and allocations are counted over the fixed-rate segments only.
  std::uint64_t allocs = 0;
  double cpu_s = 0;
  std::vector<Phase> phases(std::size(kRates));
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    const std::uint64_t allocs_before = process_allocs();
    const double cpu_before = scrape_cpu_s(scheduler);
    for (std::size_t r = 0; r < std::size(kRates); ++r) {
      const Phase segment =
          run_phase(scheduler, completions, pool, kRates[r].per_s,
                    static_cast<std::size_t>(kRates[r].per_s * kSegmentS), next_submission);
      append(phases[r], segment);
    }
    cpu_s += scrape_cpu_s(scheduler) - cpu_before;
    allocs += process_allocs() - allocs_before;
    saturate();
  }

  // Fixed-count bisection for the highest rate meeting the limit.
  std::size_t probe_refused = 0;
  std::size_t probe_submitted = 0;
  const double max_rate = bisect_max_rate(
      kRates[std::size(kRates) - 1].per_s, kRates[std::size(kRates) - 1].per_s * kBisectHiFactor,
      kBisectSteps, [&](double rate) {
        const Phase probe = run_phase(scheduler, completions, pool, rate,
                                      probe_count, next_submission);
        probe_refused += probe.refused;
        probe_submitted += probe_count;
        const bool growing = static_cast<double>(probe.backlog_end) >
                             static_cast<double>(probe.backlog_mid) + rate * 0.01;
        return probe.refused == 0 && !growing && percentile(probe.latency_s, 99) <= kLimitS;
      });

  // Serial reference verdicts, and the serial execution demand.
  std::vector<std::string> expected(kPool);
  std::vector<double> exec_s(kPool);
  std::unordered_map<std::uint64_t, std::size_t> by_seed;
  CpuRotation cpus;  // the scheduler is idle: this is the only busy thread
  for (std::size_t j = 0; j < kPool; ++j) {
    cpus.next();
    const exp::ReproScenario& scenario = pool[j];
    const auto t0 = Clock::now();
    const exp::ReproVerdict verdict = exp::evaluate_scenario(scenario);
    exec_s[j] = seconds_since(t0);
    expected[j] = normal_form(scenario, verdict);
    by_seed[scenario.seed] = j;
    // Outside the model only the order-break ablation may violate.
    if (verdict.kind != exp::FailureKind::kNone && !(j % 4 == 3 && verdict.kind ==
                                                     exp::FailureKind::kViolation)) {
      report.wrong("serial verdict of pool scenario " + std::to_string(j) +
                   " is not clean: " + verdict.detail);
    }
  }
  if (options.corrupt) expected[0] += " ";

  std::size_t refused = 0;
  std::size_t fixed_total = 0;
  for (const Phase& phase : phases) {
    refused += phase.refused;
    fixed_total += phase.latency_s.size();
  }
  const std::size_t admitted = next_submission - refused - probe_refused;
  std::size_t checked = 0;
  for (const char* tenant : kTenants) {
    const svc::Scheduler::PollResult poll = scheduler.poll(tenant, 0, planned);
    for (const svc::InstanceResult& item : poll.items) {
      ++checked;
      const auto found = by_seed.find(item.scenario.seed);
      if (found == by_seed.end() ||
          normal_form(item.scenario, item.verdict) != expected[found->second]) {
        ++report.failed;
        report.wrong("service verdict of instance " + std::to_string(item.id) +
                     " differs from the serial verdict");
      }
    }
  }
  if (checked != admitted) {
    report.wrong("polled " + std::to_string(checked) + " verdicts for " +
                 std::to_string(admitted) + " admitted instances");
  }
  report.attempted = next_submission;
  report.failed += refused;
  if (refused > 0) report.wrong(std::to_string(refused) + " submits refused below capacity");

  std::vector<double> late;
  std::vector<double> submit;
  std::vector<double> wait;
  std::size_t backlog_max = 0;
  double fixed_wall = 0;
  for (std::size_t r = 0; r < phases.size(); ++r) {
    const Phase& phase = phases[r];
    const std::string name = kRates[r].name;
    report.metrics["svc.p50_ms." + name] = report_ms(median(phase.latency_s));
    report.metrics["svc.p99_ms." + name] = report_ms(percentile(phase.latency_s, 99));
    late.insert(late.end(), phase.late_s.begin(), phase.late_s.end());
    submit.insert(submit.end(), phase.submit_s.begin(), phase.submit_s.end());
    for (std::size_t i = 0; i < phase.latency_s.size(); ++i) {
      wait.push_back(phase.latency_s[i] - exec_s[phase.pool_index[i]]);
    }
    backlog_max = std::max(backlog_max, phase.backlog_max);
    fixed_wall += phase.wall_s;
    report.notes.push_back(describe("svc latency at " + name + " (" +
                                        std::to_string(static_cast<int>(kRates[r].per_s)) + "/s)",
                                    phase.latency_s, "ms", 1e3));
  }
  report.metrics["svc.max_rate"] = max_rate;
  report.metrics["gen.late_ms.p99"] = percentile(late, 99) * 1e3;
  report.metrics["gen.late_ms.max"] = percentile(late, 100) * 1e3;
  report.notes.push_back("svc max_rate: " + std::to_string(max_rate) + "/s; generator late p99 " +
                         std::to_string(report.metrics["gen.late_ms.p99"]) + " ms");
  if (percentile(late, 99) > kMaxLateS) {
    report.invalid = "the generator fell behind its schedule (p99 " +
                     std::to_string(percentile(late, 99) * 1e3) + " ms late)";
  }

  report.notes.push_back(describe("svc saturated throughput", saturated, "1/s"));
  report.notes.push_back(describe("svc execution demand", exec_s, "ms", 1e3));
  if (!options.trace) {
    report.metrics["instance_s"] = median(exec_s);
    report.metrics["runs_per_s"] = median(saturated);
    report.metrics["allocs_per_instance"] =
        static_cast<double>(allocs) / static_cast<double>(fixed_total);
    return report;
  }
  report.metrics["samples"] = static_cast<double>(fixed_total);
  report.metrics["svc.submit_us.p50"] = median(submit) * 1e6;
  report.metrics["svc.submit_us.p99"] = percentile(submit, 99) * 1e6;
  report.metrics["svc.refused_ratio"] = static_cast<double>(refused + probe_refused) /
                                       static_cast<double>(fixed_total + probe_submitted);
  report.metrics["svc.exec_ms.p50"] = median(exec_s) * 1e3;
  report.metrics["svc.wait_ms.p50"] = median(wait) * 1e3;
  report.metrics["svc.wait_ms.p99"] = percentile(wait, 99) * 1e3;
  report.metrics["svc.cpu_s"] = cpu_s;
  report.metrics["svc.busy_ratio"] = cpu_s / (workers * fixed_wall);
  report.metrics["svc.backlog_max"] = static_cast<double>(backlog_max);
  return report;
}

}  // namespace perfbench
