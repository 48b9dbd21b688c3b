#include "core/harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/strategies/forgery.h"
#include "aa/byzantine_aa.h"
#include "baselines/bit_renaming.h"
#include "baselines/consensus_renaming.h"
#include "baselines/crash_renaming.h"
#include "core/fast_renaming.h"
#include "core/op_renaming.h"
#include "core/phase.h"
#include "core/probe.h"
#include "core/voting_kernel.h"
#include "obs/prof/profiler.h"
#include "obs/telemetry.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "translate/crash_to_byzantine.h"

namespace byzrename::core {

std::unique_ptr<sim::ProcessBehavior> make_correct_behavior(Algorithm algorithm,
                                                            const sim::SystemParams& params,
                                                            sim::Id id,
                                                            const RenamingOptions& options,
                                                            sim::ProcessIndex index) {
  switch (algorithm) {
    case Algorithm::kOpRenaming:
      return std::make_unique<OpRenamingProcess>(params, id, options);
    case Algorithm::kOpRenamingConstantTime: {
      // Fail fast outside Section V's regime: at N == t^2+2t exactly, the
      // flood adversary provably produces N+1 names (the bound is tight),
      // so running there would silently break Lemma V.1's promise.
      if (!valid_for_constant_time(params)) {
        throw std::invalid_argument("constant-time renaming requires N > t^2 + 2t");
      }
      RenamingOptions adjusted = options;
      adjusted.approximation_iterations = kConstantTimeIterations;
      return std::make_unique<OpRenamingProcess>(params, id, adjusted);
    }
    case Algorithm::kFastRenaming:
      return std::make_unique<FastRenamingProcess>(params, id, options);
    case Algorithm::kCrashRenaming:
      return std::make_unique<baselines::CrashRenamingProcess>(params, id, options);
    case Algorithm::kConsensusRenaming:
      if (index < 0) {
        throw std::invalid_argument("consensus renaming needs the process index");
      }
      return std::make_unique<baselines::ConsensusRenamingProcess>(params, index, id);
    case Algorithm::kBitRenaming:
      return std::make_unique<baselines::BitRenamingProcess>(params, id);
    case Algorithm::kTranslatedRenaming: {
      auto inner = std::make_unique<baselines::CrashRenamingProcess>(params, id, options);
      const int inner_steps = inner->total_steps();
      return std::make_unique<translate::TranslatedProcess>(params, std::move(inner),
                                                            inner_steps);
    }
    case Algorithm::kScalarAA: {
      const int rounds =
          options.approximation_iterations >= 0 ? options.approximation_iterations : 10;
      return std::make_unique<aa::ByzantineAAProcess>(params, numeric::Rational(id), rounds,
                                                      options.rank_kernel);
    }
  }
  throw std::invalid_argument("make_correct_behavior: unknown algorithm");
}

namespace {

/// Voting iterations a run resolves to; -1 for protocols without them.
int resolved_iterations(const ScenarioConfig& config) {
  switch (config.algorithm) {
    case Algorithm::kOpRenamingConstantTime:
      return kConstantTimeIterations;
    case Algorithm::kOpRenaming:
    case Algorithm::kCrashRenaming:
    case Algorithm::kTranslatedRenaming:
      return config.options.approximation_iterations >= 0
                 ? config.options.approximation_iterations
                 : default_approximation_iterations(config.params.t);
    default:
      return -1;
  }
}

/// |accepted| extremes and rejected votes/echoes over the correct Alg. 1 /
/// Alg. 4 processes; Alg. 1 reports its selection's accepted set when
/// @p selection, its live one otherwise.
struct Acceptance {
  bool any_op = false;
  bool any_fast = false;
  std::size_t min = std::numeric_limits<std::size_t>::max();
  std::size_t max = 0;
  long rejected = 0;
};

Acceptance scan_acceptance(const sim::Network& network, bool selection) {
  Acceptance scan;
  const auto add = [&scan](std::size_t accepted, long rejected) {
    scan.min = std::min(scan.min, accepted);
    scan.max = std::max(scan.max, accepted);
    scan.rejected += rejected;
  };
  for (sim::ProcessIndex i = 0; i < network.size(); ++i) {
    if (network.is_byzantine(i)) continue;
    const sim::ProcessBehavior& behavior = network.behavior(i);
    if (const auto* op = dynamic_cast<const OpRenamingProcess*>(&behavior)) {
      scan.any_op = true;
      add((selection ? op->selection_accepted() : op->accepted()).size(), op->rejected_votes());
    } else if (const auto* fast = dynamic_cast<const FastRenamingProcess*>(&behavior)) {
      scan.any_fast = true;
      add(fast->accepted().size(), fast->rejected_echoes());
    }
  }
  return scan;
}

/// Fills @p sample's counters, acceptance figures and (with @p probes)
/// the exact-rational probes from the network after a round.
void sample_round(obs::RoundSample& sample, const sim::Network& network, bool probes) {
  if (!network.metrics().per_round().empty()) {
    sample.metrics = network.metrics().per_round().back();
  }
  const Acceptance acceptance = scan_acceptance(network, /*selection=*/false);
  if (acceptance.any_op || acceptance.any_fast) {
    sample.has_acceptance = true;
    sample.min_accepted = acceptance.min;
    sample.max_accepted = acceptance.max;
    sample.rejected_votes = acceptance.rejected;
  }

  if (probes && acceptance.any_op) {
    sample.has_rank_probes = true;
    const numeric::Rational spread = max_rank_spread(network, /*timely_only=*/true);
    sample.rank_spread_exact = spread.to_string();
    sample.rank_spread = spread.to_double();
    const numeric::Rational gap = min_adjacent_rank_gap(network);
    sample.adjacent_gap_exact = gap.to_string();
    sample.adjacent_gap = gap.to_double();
  }
  if (probes && acceptance.any_fast && sample.round >= 2) {
    const FastNameStats stats = fast_name_stats(network);
    if (stats.min_gap != std::numeric_limits<sim::Name>::max()) {
      sample.has_fast_probes = true;
      sample.fast_max_discrepancy = stats.max_discrepancy;
      sample.fast_min_gap = stats.min_gap;
    }
  }
}

/// Round bracket that opens one profiler scope per round, named by the
/// core/phase.h taxonomy — "selection", "echo", "ready", "voting k=<k>",
/// "decision k=<k>" (matching phase_label), or "protocol" for
/// unmodeled baselines. The harness puts it first on the run's observer
/// list under its "run" scope, so paths come out as "run;voting k=2".
///
/// The label is formatted into a fixed buffer: after each distinct
/// round label has been interned once, per-round bracketing allocates
/// nothing.
class PhaseRoundProfiler final : public obs::RunObserver {
 public:
  /// @p iterations is the resolved voting iteration count
  /// (round_phase's contract; pass <= 0 when not applicable).
  PhaseRoundProfiler(obs::prof::Profiler& profiler, Algorithm algorithm, int iterations) noexcept
      : profiler_(profiler), algorithm_(algorithm), iterations_(iterations) {}

  void on_round_begin(sim::Round round) override {
    const RoundPhase classified = round_phase(algorithm_, round, iterations_);
    if (classified.voting_iteration > 0) {
      char label[32];
      std::snprintf(label, sizeof(label), "%s k=%d", to_string(classified.phase),
                    classified.voting_iteration);
      profiler_.enter(label);
    } else {
      profiler_.enter(to_string(classified.phase));
    }
  }

  void on_round_end(sim::Round) override { profiler_.exit(); }

 private:
  obs::prof::Profiler& profiler_;
  Algorithm algorithm_;
  int iterations_;
};

/// Drives a run's observer list from the runner's two seams: the
/// RoundHook bracket around Network::run_round, and the per-round
/// callback after it, which fills one sample for the whole list.
class ObserverList final : public sim::RoundHook {
 public:
  explicit ObserverList(std::vector<obs::RunObserver*> observers)
      : observers_(std::move(observers)) {
    for (const obs::RunObserver* observer : observers_) {
      sampling_ = std::max(sampling_, observer->sampling());
    }
  }

  void start(const obs::RunInfo& info) {
    run_start_ = std::chrono::steady_clock::now();
    last_round_ = run_start_;
    for (obs::RunObserver* observer : observers_) observer->on_run_start(info);
  }

  void on_round_begin(sim::Round round) override {
    for (obs::RunObserver* observer : observers_) observer->on_round_begin(round);
  }

  void on_round_end(sim::Round round) override {
    for (auto it = observers_.rbegin(); it != observers_.rend(); ++it) (*it)->on_round_end(round);
  }

  void observe(sim::Round round, const sim::Network& network) {
    obs::RoundSample sample;
    sample.round = round;
    if (sampling_ != obs::Sampling::kNone) {
      const auto now = std::chrono::steady_clock::now();
      sample.wall_seconds = std::chrono::duration<double>(now - last_round_).count();
      last_round_ = now;
      sample_round(sample, network, sampling_ == obs::Sampling::kProbes);
    }
    for (obs::RunObserver* observer : observers_) observer->on_round(sample, network);
  }

  void end(const ScenarioResult& result) {
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - run_start_;
    const obs::RunSummary summary{result, wall.count()};
    for (obs::RunObserver* observer : observers_) observer->on_run_end(summary);
  }

 private:
  std::vector<obs::RunObserver*> observers_;
  obs::Sampling sampling_ = obs::Sampling::kNone;
  std::chrono::steady_clock::time_point run_start_{};
  std::chrono::steady_clock::time_point last_round_{};
};

}  // namespace

sim::Name namespace_size(Algorithm algorithm, const sim::SystemParams& params) {
  const auto n = static_cast<sim::Name>(params.n);
  const auto t = static_cast<sim::Name>(params.t);
  switch (algorithm) {
    case Algorithm::kOpRenaming:
      return params.t > 0 ? n + t - 1 : n;
    case Algorithm::kOpRenamingConstantTime:
      return n;  // Lemma V.1: strong renaming in this regime
    case Algorithm::kFastRenaming:
      return n * n;
    case Algorithm::kCrashRenaming:
      return n;
    case Algorithm::kConsensusRenaming:
      return n;
    case Algorithm::kBitRenaming:
      return baselines::BitRenamingProcess::target_namespace(params);
    case Algorithm::kTranslatedRenaming:
      return n;  // the wrapped [14]-style protocol is strong
    case Algorithm::kScalarAA:
      break;
  }
  throw std::invalid_argument("namespace_size: not a renaming algorithm");
}

int expected_steps(Algorithm algorithm, const sim::SystemParams& params,
                   const RenamingOptions& options) {
  const int iterations = options.approximation_iterations >= 0
                             ? options.approximation_iterations
                             : default_approximation_iterations(params.t);
  switch (algorithm) {
    case Algorithm::kOpRenaming:
      return 4 + iterations;
    case Algorithm::kOpRenamingConstantTime:
      return 4 + kConstantTimeIterations;
    case Algorithm::kFastRenaming:
      return 2;
    case Algorithm::kCrashRenaming:
      return 1 + iterations;
    case Algorithm::kConsensusRenaming:
      return 1 + 2 * (params.t + 1);
    case Algorithm::kBitRenaming:
      return 4 + 2 * ceil_log2(2 * params.n);
    case Algorithm::kTranslatedRenaming:
      return translate::TranslatedProcess::real_steps(1 + iterations);
    case Algorithm::kScalarAA:
      return options.approximation_iterations >= 0 ? options.approximation_iterations : 10;
  }
  throw std::invalid_argument("expected_steps: unknown algorithm");
}

std::vector<sim::Id> generate_ids(int count, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::set<sim::Id> chosen;
  while (static_cast<int>(chosen.size()) < count) {
    chosen.insert(rng.uniform(1, 1'000'000'000'000));
  }
  std::vector<sim::Id> ids(chosen.begin(), chosen.end());
  std::shuffle(ids.begin(), ids.end(), rng.engine());
  return ids;
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  const sim::SystemParams& params = config.params;
  if (config.algorithm == Algorithm::kScalarAA) {
    throw std::invalid_argument("run_scenario: drive scalar AA directly, not via scenarios");
  }
  // Base faults respect the model (<= t); the fault plan's overshoot is
  // the sanctioned way to exceed t — it is a deliberate model violation,
  // and the checker classifies which guarantee gives way first.
  const int base_faults = config.actual_faults >= 0 ? config.actual_faults : params.t;
  if (base_faults > params.t || base_faults >= params.n) {
    throw std::invalid_argument("run_scenario: invalid fault count");
  }
  if (config.fault_plan.fault_overshoot < 0) {
    throw std::invalid_argument("run_scenario: fault overshoot must be >= 0");
  }
  // Fail fast on a forge rule naming an unregistered strategy — a typo'd
  // sweep spec should error out before burning a campaign, not silently
  // inject nothing.
  for (const sim::ForgeRule& rule : config.fault_plan.forges) {
    if (!adversary::has_forgery_strategy(rule.strategy)) {
      throw std::invalid_argument("run_scenario: unknown forgery strategy: " + rule.strategy);
    }
  }
  const int faults = base_faults + config.fault_plan.fault_overshoot;
  if (faults >= params.n) {
    throw std::invalid_argument(
        "run_scenario: fault overshoot leaves no correct process");
  }
  const int correct_count = params.n - faults;

  // The run's observer list: the profiler's phase bracket first, then
  // the caller's observers in order. Built before the setup scope opens,
  // so its one allocation lands in no profile node. Empty costs nothing.
  const int iterations = resolved_iterations(config);
  std::optional<PhaseRoundProfiler> phase_bracket;
  std::optional<ObserverList> observers;
  if (config.profiler != nullptr || !config.observers.empty()) {
    std::vector<obs::RunObserver*> list;
    list.reserve(config.observers.size() + 1);
    if (config.profiler != nullptr) {
      list.push_back(&phase_bracket.emplace(*config.profiler, config.algorithm, iterations));
    }
    list.insert(list.end(), config.observers.begin(), config.observers.end());
    observers.emplace(std::move(list));
  }
  obs::prof::Scope setup_scope(config.profiler, "setup");

  // Ids: correct processes sit at indices 0..correct_count-1 in id order;
  // the faulty tail receives "natural" ids interleaved with them.
  std::vector<sim::Id> correct_ids = config.correct_ids;
  std::vector<sim::Id> byz_ids;
  if (correct_ids.empty()) {
    std::vector<sim::Id> all = generate_ids(params.n, config.seed * 7919 + 17);
    correct_ids.assign(all.begin(), all.begin() + correct_count);
    byz_ids.assign(all.begin() + correct_count, all.end());
  } else {
    if (static_cast<int>(correct_ids.size()) != correct_count) {
      throw std::invalid_argument("run_scenario: correct_ids size mismatch");
    }
    std::vector<sim::Id> extra = generate_ids(params.n, config.seed * 104729 + 29);
    for (const sim::Id id : extra) {
      if (static_cast<int>(byz_ids.size()) == faults) break;
      if (std::find(correct_ids.begin(), correct_ids.end(), id) == correct_ids.end()) {
        byz_ids.push_back(id);
      }
    }
  }
  std::sort(correct_ids.begin(), correct_ids.end());

  RenamingOptions options = config.options;
  if (config.algorithm == Algorithm::kOpRenamingConstantTime) {
    options.approximation_iterations = kConstantTimeIterations;
  }
  // One voting-step cache for every fixed-kernel process this instance
  // builds: correct ones, restarted ones and Byzantine inner ones. It
  // outlives the network that owns them.
  ViewCache view_cache;
  options.view_cache = &view_cache;

  std::vector<std::unique_ptr<sim::ProcessBehavior>> behaviors;
  behaviors.reserve(static_cast<std::size_t>(params.n));
  for (int i = 0; i < correct_count; ++i) {
    behaviors.push_back(make_correct_behavior(
        config.algorithm, params, correct_ids[static_cast<std::size_t>(i)], options, i));
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

  std::vector<std::unique_ptr<sim::ProcessBehavior>> faulty =
      adversary::find_adversary(config.adversary)(env);
  if (static_cast<int>(faulty.size()) != faults) {
    throw std::logic_error("run_scenario: adversary produced wrong behavior count");
  }
  for (auto& behavior : faulty) behaviors.push_back(std::move(behavior));

  std::vector<bool> byzantine(static_cast<std::size_t>(params.n), false);
  for (int i = correct_count; i < params.n; ++i) byzantine[static_cast<std::size_t>(i)] = true;

  // Consensus and the crash-to-Byzantine translation presuppose
  // sender-authenticated links (see DESIGN.md).
  const bool scramble = config.algorithm != Algorithm::kConsensusRenaming &&
                        config.algorithm != Algorithm::kTranslatedRenaming;

  sim::Network network(std::move(behaviors), std::move(byzantine),
                       sim::Rng(config.seed ^ 0x9e3779b97f4a7c15ull), scramble);
  if (config.event_log != nullptr) network.attach_event_log(config.event_log);

  // The injector's stream is split off the run seed, so the same seed
  // with and without a plan shares all protocol randomness, and a faulted
  // run replays bit-for-bit from (seed, plan) alone.
  std::optional<sim::FaultInjector> injector;
  std::optional<adversary::RegistryForgerySource> forgery;
  if (!config.fault_plan.empty()) {
    injector.emplace(config.fault_plan,
                     sim::Rng::derive_stream(config.seed, 0xFA017ull));
    network.attach_fault_injector(&*injector);
    if (!config.fault_plan.forges.empty()) {
      // The registry source captures the env at construction; forge() is
      // then a pure function, keeping faulted runs order-independent.
      forgery.emplace(env);
      network.attach_forgery_source(&*forgery);
    }
    if (!config.fault_plan.restarts.empty()) {
      // Restart events rebuild the process exactly as it was first built:
      // same algorithm, id, options, and physical index — only its state
      // (and possibly its round counter) is lost.
      network.attach_behavior_factory(
          [algorithm = config.algorithm, params, options, correct_ids,
           correct_count](sim::ProcessIndex i) -> std::unique_ptr<sim::ProcessBehavior> {
            if (i < 0 || i >= correct_count) {
              throw std::logic_error("restart factory: index out of correct range");
            }
            return make_correct_behavior(
                algorithm, params, correct_ids[static_cast<std::size_t>(i)], options, i);
          });
    }
  }

  ScenarioResult result;
  result.target_namespace = namespace_size(config.algorithm, params);
  const int budget = expected_steps(config.algorithm, params, options) + config.extra_rounds;
  setup_scope.close();
  if (observers) {
    obs::RunInfo info;
    info.algorithm = config.algorithm;
    info.n = params.n;
    info.t = params.t;
    info.faults = faults;
    info.adversary = config.adversary;
    info.seed = config.seed;
    info.iterations = iterations;
    info.validate_votes = options.validate_votes;
    info.target_namespace = result.target_namespace;
    info.round_budget = budget;
    if (!config.fault_plan.empty()) info.fault_plan = sim::to_spec(config.fault_plan);
    observers->start(info);
  }
  {
    // Phase brackets fire inside run_round's span only, so sampling and
    // observer cost stay out of the phase nodes (they land in "run" self
    // time instead).
    obs::prof::Scope run_scope(config.profiler, "run");
    const auto observe = [&observers](sim::Round round, const sim::Network& net) {
      observers->observe(round, net);
    };
    result.run = observers ? sim::run_to_completion(network, budget, observe, &*observers)
                           : sim::run_to_completion(network, budget);
  }
  obs::prof::Scope check_scope(config.profiler, "check");

  for (int i = 0; i < correct_count; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    result.named.push_back({correct_ids[slot], result.run.decisions[slot],
                            static_cast<sim::ProcessIndex>(i), result.run.decide_rounds[slot],
                            network.was_restarted(i)});
  }
  result.report = check_renaming(result.named, result.target_namespace);

  const Acceptance acceptance = scan_acceptance(network, /*selection=*/true);
  result.max_accepted = acceptance.max;
  result.min_accepted = acceptance.any_op || acceptance.any_fast ? acceptance.min : 0;
  result.total_rejected = acceptance.rejected;
  check_scope.close();
  if (observers) observers->end(result);
  return result;
}

}  // namespace byzrename::core
