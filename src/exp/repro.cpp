#include "exp/repro.h"

#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/schema.h"

namespace byzrename::exp {

core::ScenarioConfig ReproScenario::to_config() const {
  core::ScenarioConfig config;
  config.algorithm = algorithm;
  config.params = params;
  config.adversary = adversary;
  config.actual_faults = actual_faults;
  config.seed = seed;
  config.options.approximation_iterations = iterations;
  config.options.validate_votes = validate_votes;
  config.extra_rounds = extra_rounds;
  config.fault_plan = fault_plan;
  return config;
}

ReproVerdict verdict_of(const core::ScenarioResult& result) {
  ReproVerdict verdict;
  verdict.kind = result.report.all_ok() ? FailureKind::kNone : FailureKind::kViolation;
  verdict.classes = result.report.classes();
  verdict.detail = result.report.detail;
  verdict.rounds = result.run.rounds;
  verdict.terminated = result.run.terminated;
  verdict.max_name = static_cast<std::int64_t>(result.report.max_name);
  return verdict;
}

ReproVerdict evaluate_scenario(const ReproScenario& scenario, double timeout_seconds) {
  core::ScenarioConfig config = scenario.to_config();
  std::optional<Watchdog> watchdog;
  if (timeout_seconds > 0.0) config.observers.push_back(&watchdog.emplace(timeout_seconds));
  ReproVerdict verdict;
  try {
    return verdict_of(core::run_scenario(config));
  } catch (const RunTimeoutError& error) {
    verdict.kind = FailureKind::kTimeout;
    verdict.detail = error.what();
  } catch (const std::exception& error) {
    verdict.kind = FailureKind::kException;
    verdict.detail = error.what();
  }
  return verdict;
}

bool same_failure(const ReproVerdict& reference, const ReproVerdict& candidate) {
  if (reference.kind != candidate.kind) return false;
  switch (reference.kind) {
    case FailureKind::kNone: return true;
    case FailureKind::kViolation: return reference.classes == candidate.classes;
    case FailureKind::kException: return reference.detail == candidate.detail;
    case FailureKind::kTimeout: return true;
  }
  return false;
}

void write_repro_scenario(obs::JsonWriter& json, const ReproScenario& scenario) {
  json.key("scenario").begin_object();
  json.field("algorithm", core::cli_token(scenario.algorithm))
      .field("n", scenario.params.n)
      .field("t", scenario.params.t)
      .field("adversary", scenario.adversary)
      .field("faults", scenario.actual_faults)
      .field("seed", static_cast<std::uint64_t>(scenario.seed))
      .field("iterations", scenario.iterations)
      .field("validate_votes", scenario.validate_votes)
      .field("extra_rounds", scenario.extra_rounds)
      .field("fault_plan", sim::to_spec(scenario.fault_plan));
  json.end_object();
}

void write_repro_verdict_body(obs::JsonWriter& json, const ReproVerdict& verdict) {
  json.field("kind", to_string(verdict.kind))
      .field("classes", verdict.classes)
      .field("detail", verdict.detail)
      .field("rounds", verdict.rounds)
      .field("terminated", verdict.terminated)
      .field("max_name", static_cast<std::int64_t>(verdict.max_name));
}

ReproVerdict parse_repro_verdict(const obs::JsonValue& value) {
  ReproVerdict verdict;
  const std::string& kind = value.at("kind").as_string();
  if (kind == "none") {
    verdict.kind = FailureKind::kNone;
  } else if (kind == "violation") {
    verdict.kind = FailureKind::kViolation;
  } else if (kind == "exception") {
    verdict.kind = FailureKind::kException;
  } else if (kind == "timeout") {
    verdict.kind = FailureKind::kTimeout;
  } else {
    throw std::invalid_argument("repro bundle: unknown verdict kind '" + kind + "'");
  }
  verdict.classes = value.at("classes").as_string();
  verdict.detail = value.at("detail").as_string();
  verdict.rounds = static_cast<int>(value.at("rounds").as_int());
  verdict.terminated = value.at("terminated").as_bool();
  verdict.max_name = value.at("max_name").as_int();
  return verdict;
}

ReproScenario parse_repro_scenario(const obs::JsonValue& value) {
  ReproScenario scenario;
  const std::string& token = value.at("algorithm").as_string();
  const std::optional<core::Algorithm> algorithm = core::algorithm_from_token(token);
  if (!algorithm.has_value()) {
    throw std::invalid_argument("scenario: unknown algorithm '" + token + "'");
  }
  scenario.algorithm = *algorithm;
  scenario.params.n = static_cast<int>(value.at("n").as_int());
  scenario.params.t = static_cast<int>(value.at("t").as_int());
  scenario.adversary = value.at("adversary").as_string();
  scenario.actual_faults = static_cast<int>(value.at("faults").as_int());
  scenario.seed = value.at("seed").as_uint();
  scenario.iterations = static_cast<int>(value.at("iterations").as_int());
  scenario.validate_votes = value.at("validate_votes").as_bool();
  scenario.extra_rounds = static_cast<int>(value.at("extra_rounds").as_int());
  scenario.fault_plan = sim::parse_fault_plan(value.at("fault_plan").as_string());
  return scenario;
}

void write_repro_bundle(std::ostream& os, const ReproBundle& bundle) {
  obs::JsonWriter json(os);
  json.begin_object();
  json.field("schema", obs::kReproSchema);
  if (!bundle.campaign.empty()) json.field("campaign", bundle.campaign);
  if (!bundle.cell.empty()) json.field("cell", bundle.cell);
  if (bundle.rep >= 0) json.field("rep", bundle.rep);
  write_repro_scenario(json, bundle.scenario);
  json.key("expected").begin_object();
  write_repro_verdict_body(json, bundle.expected);
  json.end_object();
  json.end_object();
  os << '\n';
}

ReproBundle parse_repro_bundle(std::string_view text) {
  const obs::JsonValue doc = obs::parse_json(text);
  const std::string& schema = doc.at("schema").as_string();
  if (schema != obs::kReproSchema) {
    throw std::invalid_argument("repro bundle: unknown schema '" + schema + "'");
  }
  ReproBundle bundle;
  if (const obs::JsonValue* campaign = doc.find("campaign")) {
    bundle.campaign = campaign->as_string();
  }
  if (const obs::JsonValue* cell = doc.find("cell")) bundle.cell = cell->as_string();
  if (const obs::JsonValue* rep = doc.find("rep")) bundle.rep = static_cast<int>(rep->as_int());
  bundle.scenario = parse_repro_scenario(doc.at("scenario"));
  bundle.expected = parse_repro_verdict(doc.at("expected"));
  return bundle;
}

void write_repro_verdict(std::ostream& os, const ReproBundle& bundle,
                         const ReproVerdict& observed, int replays, bool consistent) {
  obs::JsonWriter json(os);
  json.begin_object();
  json.field("schema", obs::kReproVerdictSchema);
  write_repro_scenario(json, bundle.scenario);
  json.key("expected").begin_object();
  write_repro_verdict_body(json, bundle.expected);
  json.end_object();
  json.key("observed").begin_object();
  write_repro_verdict_body(json, observed);
  json.end_object();
  json.field("replays", replays)
      .field("consistent", consistent)
      .field("matches_expected", observed == bundle.expected);
  json.end_object();
  os << '\n';
}

}  // namespace byzrename::exp
