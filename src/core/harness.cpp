#include "core/harness.h"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "adversary/adversary.h"
#include "adversary/strategies/forgery.h"
#include "aa/byzantine_aa.h"
#include "baselines/bit_renaming.h"
#include "baselines/consensus_renaming.h"
#include "baselines/crash_renaming.h"
#include "core/fast_renaming.h"
#include "core/op_renaming.h"
#include "core/voting_kernel.h"
#include "obs/prof/phase_profile.h"
#include "obs/prof/profiler.h"
#include "obs/telemetry.h"
#include "sim/rng.h"
#include "translate/crash_to_byzantine.h"

namespace byzrename::core {

namespace {

/// Correct behaviors sometimes need the process's physical index (the
/// consensus baseline runs in the sender-authenticated model). This
/// overload is internal; the public make_correct_behavior forwards -1.
std::unique_ptr<sim::ProcessBehavior> make_behavior(Algorithm algorithm,
                                                    const sim::SystemParams& params, sim::Id id,
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

}  // namespace

std::unique_ptr<sim::ProcessBehavior> make_correct_behavior(Algorithm algorithm,
                                                            const sim::SystemParams& params,
                                                            sim::Id id,
                                                            const RenamingOptions& options,
                                                            sim::ProcessIndex index) {
  return make_behavior(algorithm, params, id, options, index);
}

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

  // Profiler attachment: ambient for caller-defined scopes under the
  // call tree, plus the harness's own setup/run/check top-level scopes.
  // Everything below is a read-only observation — see ScenarioConfig.
  obs::prof::ThreadProfilerGuard profiler_guard(config.profiler);
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
    behaviors.push_back(make_behavior(config.algorithm, params, correct_ids[static_cast<std::size_t>(i)],
                                      options, i));
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
            return make_behavior(algorithm, params, correct_ids[static_cast<std::size_t>(i)],
                                 options, i);
          });
    }
  }

  ScenarioResult result;
  result.target_namespace = namespace_size(config.algorithm, params);
  const int budget = expected_steps(config.algorithm, params, options) + config.extra_rounds;
  const bool uses_iterations = config.algorithm == Algorithm::kOpRenaming ||
                               config.algorithm == Algorithm::kOpRenamingConstantTime ||
                               config.algorithm == Algorithm::kCrashRenaming ||
                               config.algorithm == Algorithm::kTranslatedRenaming;
  const int resolved_iterations = !uses_iterations ? -1
                                  : options.approximation_iterations >= 0
                                      ? options.approximation_iterations
                                      : default_approximation_iterations(params.t);

  // Fan the runner's single observer slot out to the caller's probe and
  // the telemetry sampler; with neither attached the run pays nothing.
  obs::ObserverHub hub;
  hub.add(config.observer);
  obs::Telemetry* telemetry =
      config.telemetry != nullptr && config.telemetry->active() ? config.telemetry : nullptr;
  if (telemetry != nullptr) {
    obs::RunInfo info;
    info.algorithm = std::string(to_string(config.algorithm));
    info.n = params.n;
    info.t = params.t;
    info.faults = faults;
    info.adversary = config.adversary;
    info.seed = config.seed;
    info.iterations = resolved_iterations;
    info.validate_votes = options.validate_votes;
    info.target_namespace = result.target_namespace;
    info.round_budget = budget;
    info.label = config.telemetry_label;
    if (!config.fault_plan.empty()) info.fault_plan = sim::to_spec(config.fault_plan);
    telemetry->begin_run(std::move(info));
    hub.add(telemetry->round_observer());
  }
  setup_scope.close();
  {
    // Per-round phase bracketing under a "run" scope: the hook fires
    // inside run_round only, so observer/telemetry cost stays out of
    // the phase nodes (it lands in "run" self time instead).
    obs::prof::Scope run_scope(config.profiler, "run");
    std::optional<obs::prof::PhaseRoundProfiler> phase_hook;
    if (config.profiler != nullptr) {
      phase_hook.emplace(*config.profiler, config.algorithm, resolved_iterations);
    }
    result.run = sim::run_to_completion(network, budget, hub.as_observer(),
                                        phase_hook ? &*phase_hook : nullptr);
  }
  obs::prof::Scope check_scope(config.profiler, "check");

  for (int i = 0; i < correct_count; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    result.named.push_back({correct_ids[slot], result.run.decisions[slot],
                            static_cast<sim::ProcessIndex>(i), result.run.decide_rounds[slot],
                            network.was_restarted(i)});
  }
  result.report = check_renaming(result.named, result.target_namespace);

  result.min_accepted = static_cast<std::size_t>(-1);
  for (int i = 0; i < correct_count; ++i) {
    const sim::ProcessBehavior& behavior = network.behavior(i);
    if (const auto* op = dynamic_cast<const OpRenamingProcess*>(&behavior)) {
      result.max_accepted = std::max(result.max_accepted, op->selection_accepted().size());
      result.min_accepted = std::min(result.min_accepted, op->selection_accepted().size());
      result.total_rejected += op->rejected_votes();
    } else if (const auto* fast = dynamic_cast<const FastRenamingProcess*>(&behavior)) {
      result.max_accepted = std::max(result.max_accepted, fast->accepted().size());
      result.min_accepted = std::min(result.min_accepted, fast->accepted().size());
      result.total_rejected += fast->rejected_echoes();
    }
  }
  if (result.min_accepted == static_cast<std::size_t>(-1)) result.min_accepted = 0;
  check_scope.close();
  if (telemetry != nullptr) telemetry->end_run(result);
  return result;
}

}  // namespace byzrename::core
