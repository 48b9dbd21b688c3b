// Failure repro + shrinking: scenario evaluation digests, the greedy
// delta-debugging shrinker, repro-bundle round-trips, and the JSON parser
// the bundle loader is built on.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/harness.h"
#include "exp/repro.h"
#include "exp/shrink.h"
#include "obs/json_parse.h"
#include "sim/fault.h"

namespace byzrename {
namespace {

exp::ReproScenario failing_scenario() {
  exp::ReproScenario scenario;
  scenario.params = {.n = 10, .t = 3};
  scenario.seed = 7;
  scenario.fault_plan = sim::parse_fault_plan("drop:1.0");
  return scenario;
}

TEST(EvaluateScenario, CleanRunYieldsNoFailure) {
  exp::ReproScenario scenario;
  scenario.params = {.n = 7, .t = 2};
  const exp::ReproVerdict verdict = exp::evaluate_scenario(scenario);
  EXPECT_EQ(verdict.kind, exp::FailureKind::kNone);
  EXPECT_FALSE(verdict.failed());
  EXPECT_TRUE(verdict.terminated);
  EXPECT_TRUE(verdict.classes.empty());
}

TEST(EvaluateScenario, IsDeterministic) {
  const exp::ReproScenario scenario = failing_scenario();
  const exp::ReproVerdict a = exp::evaluate_scenario(scenario);
  const exp::ReproVerdict b = exp::evaluate_scenario(scenario);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.kind, exp::FailureKind::kViolation);
  EXPECT_NE(a.classes.find("termination"), std::string::npos);
}

TEST(EvaluateScenario, ExceptionsBecomeVerdictsNotThrows) {
  exp::ReproScenario scenario;
  scenario.params = {.n = 7, .t = 2};
  scenario.adversary = "no-such-strategy";
  const exp::ReproVerdict verdict = exp::evaluate_scenario(scenario);
  EXPECT_EQ(verdict.kind, exp::FailureKind::kException);
  EXPECT_FALSE(verdict.detail.empty());
}

TEST(VerdictOf, DigestsEveryFieldOfAFinishedRun) {
  const exp::ReproScenario scenario = failing_scenario();
  const core::ScenarioResult result = core::run_scenario(scenario.to_config());
  const exp::ReproVerdict verdict = exp::verdict_of(result);
  EXPECT_EQ(verdict.kind, exp::FailureKind::kViolation);
  EXPECT_EQ(verdict.classes, result.report.classes());
  EXPECT_EQ(verdict.detail, result.report.detail);
  EXPECT_EQ(verdict.rounds, result.run.rounds);
  EXPECT_EQ(verdict.terminated, result.run.terminated);
  EXPECT_EQ(verdict.max_name, static_cast<std::int64_t>(result.report.max_name));
  // evaluate_scenario is the same digest of the same deterministic run.
  EXPECT_EQ(verdict, exp::evaluate_scenario(scenario));
}

TEST(SameFailure, MatchesByKindSpecificFields) {
  exp::ReproVerdict violation_a{exp::FailureKind::kViolation, "order", "msg a", 5, true, 9};
  exp::ReproVerdict violation_b{exp::FailureKind::kViolation, "order", "msg b", 3, true, 7};
  exp::ReproVerdict violation_c{exp::FailureKind::kViolation, "uniqueness", "msg a", 5, true, 9};
  EXPECT_TRUE(exp::same_failure(violation_a, violation_b));  // detail may differ
  EXPECT_FALSE(exp::same_failure(violation_a, violation_c));

  exp::ReproVerdict exception_a{exp::FailureKind::kException, "", "boom", 0, false, 0};
  exp::ReproVerdict exception_b{exp::FailureKind::kException, "", "boom", 0, false, 0};
  exp::ReproVerdict exception_c{exp::FailureKind::kException, "", "other", 0, false, 0};
  EXPECT_TRUE(exp::same_failure(exception_a, exception_b));
  EXPECT_FALSE(exp::same_failure(exception_a, exception_c));
  EXPECT_FALSE(exp::same_failure(violation_a, exception_a));
}

TEST(Shrinker, SizeMetricShrinksWithTheScenario) {
  exp::ReproScenario big = failing_scenario();
  exp::ReproScenario small = big;
  small.params.n = 4;
  small.params.t = 1;
  small.fault_plan = {};
  EXPECT_LT(exp::scenario_size(small), exp::scenario_size(big));
}

TEST(Shrinker, CandidatesAreStrictlySimplerAndDeterministic) {
  const exp::ReproScenario scenario = failing_scenario();
  const auto first = exp::shrink_candidates(scenario);
  const auto second = exp::shrink_candidates(scenario);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], second[i]);
}

TEST(Shrinker, RefusesAPassingScenario) {
  exp::ReproScenario scenario;
  scenario.params = {.n = 7, .t = 2};
  EXPECT_THROW((void)exp::shrink_scenario(scenario), std::invalid_argument);
}

TEST(Shrinker, MinimizesSeededFailureToSameClassStrictlySmaller) {
  const exp::ReproScenario scenario = failing_scenario();
  const exp::ReproVerdict original = exp::evaluate_scenario(scenario);
  ASSERT_EQ(original.kind, exp::FailureKind::kViolation);

  const exp::ShrinkResult result = exp::shrink_scenario(scenario);
  EXPECT_TRUE(result.shrank());
  EXPECT_LT(result.final_size, result.original_size);
  EXPECT_GT(result.accepted_shrinks, 0);
  // Same failure class set, still actually failing.
  EXPECT_EQ(result.verdict.kind, exp::FailureKind::kViolation);
  EXPECT_EQ(result.verdict.classes, original.classes);
  EXPECT_EQ(exp::evaluate_scenario(result.scenario), result.verdict);
  // Deterministic: shrinking again lands on the same minimum.
  const exp::ShrinkResult again = exp::shrink_scenario(scenario);
  EXPECT_EQ(again.scenario, result.scenario);
}

TEST(Shrinker, RestartFailureShedsTheIrrelevantForgeRule) {
  // A mid-protocol restart starves the restarted process (termination
  // violation); the forge rule riding along contributes nothing to that
  // failure, so the shrinker must delete it and keep the restart.
  exp::ReproScenario scenario;
  scenario.params = {.n = 13, .t = 2};
  scenario.seed = 7;
  scenario.extra_rounds = 8;
  scenario.fault_plan = sim::parse_fault_plan("restart:3@2+forge:1");
  const exp::ReproVerdict original = exp::evaluate_scenario(scenario);
  ASSERT_EQ(original.kind, exp::FailureKind::kViolation);
  ASSERT_NE(original.classes.find("termination"), std::string::npos);

  const exp::ShrinkResult result = exp::shrink_scenario(scenario);
  EXPECT_TRUE(result.shrank());
  EXPECT_LT(result.final_size, result.original_size);
  EXPECT_EQ(result.verdict.classes, original.classes);
  EXPECT_TRUE(result.scenario.fault_plan.forges.empty());
  ASSERT_EQ(result.scenario.fault_plan.restarts.size(), 1u);
}

TEST(Shrinker, ForgeHeavyFailureMinimizesStrictlySmaller) {
  // The failure is carried by the total drop; the forge rule (and its
  // count, which the shrinker halves before erasing) must disappear from
  // the minimized scenario while the failure class is preserved.
  exp::ReproScenario scenario;
  scenario.params = {.n = 10, .t = 3};
  scenario.seed = 7;
  scenario.fault_plan = sim::parse_fault_plan("drop:1.0+forge:8x0.5");
  const exp::ReproVerdict original = exp::evaluate_scenario(scenario);
  ASSERT_EQ(original.kind, exp::FailureKind::kViolation);

  const exp::ShrinkResult result = exp::shrink_scenario(scenario);
  EXPECT_TRUE(result.shrank());
  EXPECT_LT(result.final_size, result.original_size);
  EXPECT_EQ(result.verdict.classes, original.classes);
  EXPECT_TRUE(result.scenario.fault_plan.forges.empty());
  // Deterministic: the same input shrinks to the same minimum.
  EXPECT_EQ(exp::shrink_scenario(scenario).scenario, result.scenario);
}

TEST(ReproBundle, WriteParseRoundTripsIncludingUint64Seed) {
  exp::ReproBundle bundle;
  bundle.campaign = "unit";
  bundle.cell = "op/n10/t3/silent";
  bundle.rep = 4;
  bundle.scenario = failing_scenario();
  bundle.scenario.seed = std::numeric_limits<std::uint64_t>::max() - 1;  // > int64 max
  bundle.scenario.adversary = "idflood";
  bundle.scenario.actual_faults = 2;
  bundle.scenario.iterations = 12;
  bundle.scenario.validate_votes = false;
  bundle.scenario.extra_rounds = 3;
  bundle.expected = {exp::FailureKind::kViolation, "termination", "detail text", 9, false, 4};

  std::ostringstream out;
  exp::write_repro_bundle(out, bundle);
  const exp::ReproBundle parsed = exp::parse_repro_bundle(out.str());
  EXPECT_EQ(parsed.campaign, bundle.campaign);
  EXPECT_EQ(parsed.cell, bundle.cell);
  EXPECT_EQ(parsed.rep, bundle.rep);
  EXPECT_EQ(parsed.scenario, bundle.scenario);
  EXPECT_EQ(parsed.expected, bundle.expected);

  // Serialization itself is deterministic.
  std::ostringstream out2;
  exp::write_repro_bundle(out2, parsed);
  EXPECT_EQ(out.str(), out2.str());
}

TEST(ReproBundle, RejectsUnknownSchemaAndGarbage) {
  EXPECT_THROW((void)exp::parse_repro_bundle("{\"schema\":\"bogus/9\"}"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_repro_bundle("not json"), std::invalid_argument);
  EXPECT_THROW((void)exp::parse_repro_bundle("{}"), std::invalid_argument);
}

TEST(ReproVerdictDoc, IsDeterministicAndRecordsMatch) {
  exp::ReproBundle bundle;
  bundle.scenario = failing_scenario();
  bundle.expected = exp::evaluate_scenario(bundle.scenario);
  std::ostringstream a;
  std::ostringstream b;
  exp::write_repro_verdict(a, bundle, bundle.expected, 8, true);
  exp::write_repro_verdict(b, bundle, bundle.expected, 8, true);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"matches_expected\":true"), std::string::npos);
  const exp::ReproVerdict mismatched;  // kNone != the violation verdict
  std::ostringstream c;
  exp::write_repro_verdict(c, bundle, mismatched, 8, true);
  EXPECT_NE(c.str().find("\"matches_expected\":false"), std::string::npos);
}

TEST(JsonParse, ParsesScalarsContainersAndEscapes) {
  const obs::JsonValue doc = obs::parse_json(
      R"({"b":true,"i":-5,"d":2.5,"s":"a\"\\\n\u0041\u00e9","arr":[1,2,3],"obj":{"k":null}})");
  EXPECT_TRUE(doc.at("b").as_bool());
  EXPECT_EQ(doc.at("i").as_int(), -5);
  EXPECT_DOUBLE_EQ(doc.at("d").as_double(), 2.5);
  EXPECT_EQ(doc.at("s").as_string(), "a\"\\\nA\xc3\xa9");
  EXPECT_EQ(doc.at("arr").as_array().size(), 3u);
  EXPECT_EQ(doc.at("arr").as_array()[2].as_int(), 3);
  EXPECT_TRUE(doc.at("obj").at("k").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), std::invalid_argument);
}

TEST(JsonParse, PreservesFullUint64Range) {
  const obs::JsonValue doc = obs::parse_json("{\"seed\":18446744073709551614}");
  EXPECT_EQ(doc.at("seed").as_uint(), 18446744073709551614ull);
  EXPECT_THROW((void)doc.at("seed").as_int(), std::invalid_argument);  // > int64 max
  const obs::JsonValue small = obs::parse_json("{\"seed\":42}");
  EXPECT_EQ(small.at("seed").as_int(), 42);
  EXPECT_EQ(small.at("seed").as_uint(), 42u);
  const obs::JsonValue negative = obs::parse_json("{\"x\":-1}");
  EXPECT_THROW((void)negative.at("x").as_uint(), std::invalid_argument);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",            // empty
      "{",           // unterminated object
      "[1,]",        // trailing comma
      "{\"a\":1,}",  // trailing comma in object
      "\"\\u12\"",   // truncated escape
      "\"\\ud800\"", // unpaired surrogate
      "{} trailing", // trailing content
      "{\"a\" 1}",   // missing colon
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)obs::parse_json(text), std::invalid_argument) << text;
  }
}

TEST(Watchdog, DeadlineObserverThrowsPastTimeout) {
  exp::ReproScenario scenario;
  scenario.params = {.n = 7, .t = 2};
  // A generous deadline never fires on a millisecond-scale run...
  EXPECT_EQ(exp::evaluate_scenario(scenario, 30.0).kind, exp::FailureKind::kNone);
  // ...while an already-expired one converts the run into a timeout
  // verdict at the first round boundary.
  EXPECT_EQ(exp::evaluate_scenario(scenario, 1e-9).kind, exp::FailureKind::kTimeout);
}

TEST(Watchdog, DeadlineStartsAtConstruction) {
  exp::ReproScenario scenario;
  scenario.params = {.n = 7, .t = 2};
  core::ScenarioConfig config = scenario.to_config();
  // The 50 ms deadline runs out before the watchdog is attached, so the
  // first round boundary already throws; a deadline counted from run
  // start would never fire on this millisecond-scale run.
  exp::Watchdog watchdog(0.05);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  config.observers.push_back(&watchdog);
  EXPECT_THROW((void)core::run_scenario(config), exp::RunTimeoutError);
}

}  // namespace
}  // namespace byzrename
