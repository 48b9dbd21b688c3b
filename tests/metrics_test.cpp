// Tests for the round-resolved metrics engine and the complexity
// auditor: MetricsRegistry units, the phase taxonomy, MetricsSink
// against real scenario runs, the byzrename.metrics/1 and
// byzrename.audit/1 JSONL records round-tripped through the production
// obs::parse_json, malformed-input rejection, the 13-adversary
// zero-false-alarm audit sweep of the acceptance criteria, and a
// golden-file comparison of a full N=16 run's metrics stream.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "core/harness.h"
#include "core/phase.h"
#include "obs/complexity_audit.h"
#include "obs/json_parse.h"
#include "obs/metrics_registry.h"
#include "obs/schema.h"
#include "obs/telemetry.h"

namespace {

using namespace byzrename;
using core::Phase;
using obs::ComplexityAuditor;
using obs::JsonValue;
using obs::MetricsRegistry;
using obs::MetricsSink;

// ---------------------------------------------------------------------------
// MetricsRegistry units

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry registry;
  const auto handle = registry.counter("byzrename_widgets_total", "widgets", "selection");
  EXPECT_EQ(registry.counter_value(handle), 0u);
  registry.add(handle, 3);
  registry.add(handle, 4);
  EXPECT_EQ(registry.counter_value(handle), 7u);
}

TEST(MetricsRegistry, GaugeKeepsLastValue) {
  MetricsRegistry registry;
  const auto handle = registry.gauge("byzrename_spread", "rank spread");
  registry.set(handle, 2.5);
  registry.set(handle, 0.125);
  EXPECT_EQ(registry.gauge_value(handle), 0.125);
}

TEST(MetricsRegistry, HistogramBucketsAreExactAndCumulativeInText) {
  MetricsRegistry registry;
  const auto handle = registry.histogram("byzrename_bits", "message bits", {1, 2, 4});
  registry.observe(handle, 1);  // bucket le=1 (bounds are inclusive)
  registry.observe(handle, 2);  // bucket le=2
  registry.observe(handle, 3);  // bucket le=4
  registry.observe(handle, 5);  // +Inf bucket
  EXPECT_EQ(registry.histogram_count(handle), 4u);
  EXPECT_EQ(registry.histogram_sum(handle), 11u);

  std::ostringstream text;
  registry.write_prometheus(text);
  const std::string out = text.str();
  EXPECT_NE(out.find("byzrename_bits_bucket{le=\"1\"} 1\n"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrename_bits_bucket{le=\"2\"} 2\n"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrename_bits_bucket{le=\"4\"} 3\n"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrename_bits_bucket{le=\"+Inf\"} 4\n"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrename_bits_sum 11\n"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrename_bits_count 4\n"), std::string::npos) << out;
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  const auto counter = registry.counter("byzrename_c_total", "c");
  const auto gauge = registry.gauge("byzrename_g", "g");
  EXPECT_THROW(registry.set(counter, 1.0), std::invalid_argument);
  EXPECT_THROW(registry.add(gauge, 1), std::invalid_argument);
  EXPECT_THROW(registry.observe(counter, 1), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramBoundsMustStrictlyIncrease) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("byzrename_h", "h", {4, 2, 1}), std::invalid_argument);
  EXPECT_THROW(registry.histogram("byzrename_h", "h", {1, 1}), std::invalid_argument);
  EXPECT_THROW(registry.histogram("byzrename_h", "h", {}), std::invalid_argument);
}

TEST(MetricsRegistry, ExponentialBounds) {
  const std::vector<std::uint64_t> expected{8, 16, 32, 64};
  EXPECT_EQ(MetricsRegistry::exponential_bounds(8, 2, 4), expected);
}

TEST(MetricsRegistry, UntouchedInstrumentsAreSkippedInText) {
  MetricsRegistry registry;
  const auto used = registry.counter("byzrename_used_total", "used", "echo");
  registry.counter("byzrename_unused_total", "never written", "echo");
  registry.add(used, 1);
  std::ostringstream text;
  registry.write_prometheus(text);
  EXPECT_NE(text.str().find("byzrename_used_total"), std::string::npos);
  EXPECT_EQ(text.str().find("byzrename_unused_total"), std::string::npos) << text.str();
}

TEST(MetricsRegistry, FamilyHeaderEmittedOncePerFamily) {
  MetricsRegistry registry;
  const auto a = registry.counter("byzrename_m_total", "m", "selection");
  const auto b = registry.counter("byzrename_m_total", "m", "echo");
  registry.add(a, 1);
  registry.add(b, 2);
  std::ostringstream text;
  registry.write_prometheus(text);
  const std::string out = text.str();
  std::size_t headers = 0;
  for (std::size_t pos = out.find("# HELP byzrename_m_total"); pos != std::string::npos;
       pos = out.find("# HELP byzrename_m_total", pos + 1)) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u) << out;
  EXPECT_NE(out.find("byzrename_m_total{phase=\"selection\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("byzrename_m_total{phase=\"echo\"} 2\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus text-format escaping: label values escape \, ", and LF;
// HELP text escapes \ and LF. Hostile strings (adversary names, cell
// keys) must never be able to break a sample line or fake extra series.

TEST(PrometheusEscaping, LabelValueEscapesBackslashQuoteAndNewline) {
  std::ostringstream os;
  obs::write_prometheus_label_value(os, "a\\b\"c\nd");
  EXPECT_EQ(os.str(), "a\\\\b\\\"c\\nd");
}

TEST(PrometheusEscaping, HelpEscapesBackslashAndNewlineButNotQuote) {
  std::ostringstream os;
  obs::write_prometheus_help(os, "say \"hi\"\\\nbye");
  EXPECT_EQ(os.str(), "say \"hi\"\\\\\\nbye");
}

TEST(PrometheusEscaping, HostileLabelAndHelpCannotCorruptExposition) {
  MetricsRegistry registry;
  // A phase label carrying every hostile byte class, and HELP text with
  // an embedded newline: the rendered text must stay one sample line
  // with the payload inside the quotes.
  const auto handle = registry.counter("byzrename_hostile_total",
                                       "line1\nline2 \\ \"quoted\"",
                                       "evil\"} 99\nfake_series 1");
  registry.add(handle, 5);
  std::ostringstream text;
  registry.write_prometheus(text);
  const std::string out = text.str();
  EXPECT_NE(out.find("# HELP byzrename_hostile_total line1\\nline2 \\\\ \"quoted\"\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("byzrename_hostile_total{phase=\"evil\\\"} 99\\nfake_series 1\"} 5\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("\nfake_series"), std::string::npos) << out;
}

// ---------------------------------------------------------------------------
// Phase taxonomy (core/phase.h)

TEST(PhaseTaxonomy, OpRenamingRoundsClassifyPerAlgorithmOne) {
  using core::round_phase;
  const auto algo = core::Algorithm::kOpRenaming;
  const int iterations = 9;  // n=13, t=4 default: 3*ceil(log2 4)+3
  EXPECT_EQ(round_phase(algo, 1, iterations).phase, Phase::kSelection);
  EXPECT_EQ(round_phase(algo, 2, iterations).phase, Phase::kEcho);
  EXPECT_EQ(round_phase(algo, 3, iterations).phase, Phase::kReady);
  EXPECT_EQ(round_phase(algo, 4, iterations).phase, Phase::kReady);
  EXPECT_EQ(round_phase(algo, 5, iterations).phase, Phase::kVoting);
  EXPECT_EQ(round_phase(algo, 5, iterations).voting_iteration, 1);
  EXPECT_EQ(round_phase(algo, 12, iterations).phase, Phase::kVoting);
  EXPECT_EQ(round_phase(algo, 12, iterations).voting_iteration, 8);
  EXPECT_EQ(round_phase(algo, 13, iterations).phase, Phase::kDecision);
  EXPECT_EQ(round_phase(algo, 13, iterations).voting_iteration, 9);
}

TEST(PhaseTaxonomy, FastAndBaselineClassification) {
  using core::round_phase;
  EXPECT_EQ(round_phase(core::Algorithm::kFastRenaming, 1, -1).phase, Phase::kSelection);
  EXPECT_EQ(round_phase(core::Algorithm::kFastRenaming, 2, -1).phase, Phase::kDecision);
  EXPECT_EQ(round_phase(core::Algorithm::kCrashRenaming, 3, -1).phase, Phase::kProtocol);
}

TEST(PhaseTaxonomy, LabelsCarryVotingIteration) {
  EXPECT_EQ(core::phase_label({Phase::kVoting, 2}), "voting k=2");
  EXPECT_EQ(core::phase_label({Phase::kDecision, 9}), "decision k=9");
  EXPECT_EQ(core::phase_label({Phase::kSelection, 0}), "selection");
}

// ---------------------------------------------------------------------------
// MetricsSink against real runs

struct MetricsCapture {
  MetricsSink sink;
  ComplexityAuditor auditor;
  core::ScenarioResult result;
};

MetricsCapture run_with_metrics(core::ScenarioConfig config) {
  MetricsCapture capture;
  config.observers = {&capture.sink, &capture.auditor};
  capture.result = core::run_scenario(config);
  return capture;
}

core::ScenarioConfig op_config(int n, int t, const std::string& adversary, std::uint64_t seed) {
  core::ScenarioConfig config;
  config.params = {.n = n, .t = t};
  config.algorithm = core::Algorithm::kOpRenaming;
  config.adversary = adversary;
  config.seed = seed;
  return config;
}

TEST(MetricsSink, CapturesOneRowPerRoundWithMatchingTotals) {
  const MetricsCapture capture = run_with_metrics(op_config(10, 3, "asymflood", 42));
  const sim::Metrics& metrics = capture.result.run.metrics;
  ASSERT_EQ(capture.sink.rows().size(), metrics.per_round().size());
  ASSERT_EQ(static_cast<int>(capture.sink.rows().size()), capture.result.run.rounds);

  std::size_t messages = 0;
  std::size_t correct_bits = 0;
  for (const MetricsSink::Row& row : capture.sink.rows()) {
    messages += row.sample.metrics.messages;
    correct_bits += row.sample.metrics.correct_bits;
  }
  EXPECT_EQ(messages, metrics.total_messages());
  EXPECT_EQ(correct_bits, metrics.total_correct_bits());
}

TEST(MetricsSink, PrometheusPhaseSeriesSumToRunTotals) {
  const MetricsCapture capture = run_with_metrics(op_config(13, 4, "asymflood", 7));
  std::ostringstream text;
  capture.sink.write_prometheus(text);
  const std::string out = text.str();

  // Sum every byzrename_messages_total{phase="..."} sample and check it
  // reproduces the run's total message count exactly.
  std::uint64_t total = 0;
  std::map<std::string, std::uint64_t> by_phase;
  std::istringstream lines(out);
  std::string line;
  const std::string prefix = "byzrename_messages_total{phase=\"";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t close = line.find('"', prefix.size());
    ASSERT_NE(close, std::string::npos);
    const std::string phase = line.substr(prefix.size(), close - prefix.size());
    const std::uint64_t value = std::stoull(line.substr(line.rfind(' ') + 1));
    by_phase[phase] += value;
    total += value;
  }
  EXPECT_EQ(total, capture.result.run.metrics.total_messages()) << out;
  // An op run visits every modeled phase; `protocol` must not appear.
  for (const char* phase : {"selection", "echo", "ready", "voting", "decision"}) {
    EXPECT_TRUE(by_phase.count(phase)) << "missing phase series: " << phase;
  }
  EXPECT_FALSE(by_phase.count("protocol")) << out;
  EXPECT_NE(out.find("byzrename_rounds_total"), std::string::npos);
  EXPECT_NE(out.find("byzrename_rank_spread"), std::string::npos);
}

TEST(MetricsSink, JsonlIsDeterministicAcrossIdenticalRuns) {
  const MetricsCapture a = run_with_metrics(op_config(10, 3, "split", 11));
  const MetricsCapture b = run_with_metrics(op_config(10, 3, "split", 11));
  std::ostringstream out_a;
  std::ostringstream out_b;
  a.sink.write_metrics_jsonl(out_a);
  b.sink.write_metrics_jsonl(out_b);
  EXPECT_FALSE(out_a.str().empty());
  EXPECT_EQ(out_a.str(), out_b.str());
}

// ---------------------------------------------------------------------------
// byzrename.metrics/1 round-trip through the production JSON parser

TEST(MetricsJsonl, EveryLineRoundTripsThroughParseJson) {
  const MetricsCapture capture = run_with_metrics(op_config(13, 4, "split", 3));
  std::ostringstream out;
  capture.sink.write_metrics_jsonl(out);

  std::istringstream lines(out.str());
  std::string line;
  int round = 0;
  std::uint64_t messages = 0;
  while (std::getline(lines, line)) {
    const JsonValue record = obs::parse_json(line);
    EXPECT_EQ(record.at("schema").as_string(), obs::kMetricsSchema);
    const JsonValue& run = record.at("run");
    EXPECT_EQ(run.at("algorithm").as_string(), "op-renaming");
    EXPECT_EQ(run.at("n").as_int(), 13);
    EXPECT_EQ(run.at("t").as_int(), 4);
    EXPECT_EQ(run.at("adversary").as_string(), "split");
    EXPECT_EQ(run.at("seed").as_uint(), 3u);
    round += 1;
    EXPECT_EQ(record.at("round").as_int(), round);
    messages += record.at("messages").as_uint();
    // Phase labels follow the taxonomy for this round.
    const core::RoundPhase phase = core::round_phase(
        core::Algorithm::kOpRenaming, round, static_cast<int>(run.at("iterations").as_int()));
    EXPECT_EQ(record.at("phase").as_string(), core::to_string(phase.phase));
    EXPECT_EQ(record.at("voting_iteration").as_int(), phase.voting_iteration);
    EXPECT_TRUE(record.find("rank_spread") != nullptr);
    EXPECT_TRUE(record.find("max_correct_message_bits") != nullptr);
  }
  EXPECT_EQ(round, capture.result.run.rounds);
  EXPECT_EQ(messages, capture.result.run.metrics.total_messages());
}

TEST(MetricsJsonl, ParserRejectsTruncatedLines) {
  const MetricsCapture capture = run_with_metrics(op_config(7, 2, "silent", 1));
  std::ostringstream out;
  capture.sink.write_metrics_jsonl(out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  for (const std::size_t keep : {line.size() - 1, line.size() / 2, std::size_t{1}}) {
    EXPECT_THROW((void)obs::parse_json(line.substr(0, keep)), std::invalid_argument)
        << "accepted a line truncated to " << keep << " bytes";
  }
}

TEST(MetricsJsonl, ParserRejectsNaNAndInfinity) {
  EXPECT_THROW((void)obs::parse_json("{\"rank_spread\": NaN}"), std::invalid_argument);
  EXPECT_THROW((void)obs::parse_json("{\"rank_spread\": nan}"), std::invalid_argument);
  EXPECT_THROW((void)obs::parse_json("{\"rank_spread\": Infinity}"), std::invalid_argument);
  EXPECT_THROW((void)obs::parse_json("{\"rank_spread\": -inf}"), std::invalid_argument);
}

TEST(MetricsJsonl, ParserRejectsNumericOverflow) {
  // A double overflow is a hard parse error...
  EXPECT_THROW((void)obs::parse_json("{\"bits\": 1e999}"), std::invalid_argument);
  // ...and an integer past uint64 survives only as a lossy double, which
  // the typed integer accessors refuse.
  const JsonValue huge = obs::parse_json("{\"bits\": 18446744073709551616}");
  EXPECT_THROW((void)huge.at("bits").as_uint(), std::invalid_argument);
  EXPECT_THROW((void)huge.at("bits").as_int(), std::invalid_argument);
  // The largest representable uint64 still round-trips exactly.
  const JsonValue max = obs::parse_json("{\"seed\": 18446744073709551615}");
  EXPECT_EQ(max.at("seed").as_uint(), 18446744073709551615ull);
}

// ---------------------------------------------------------------------------
// ComplexityAuditor

TEST(ComplexityAuditor, ZeroFalseAlarmsAcrossFullAdversarySweep) {
  // Acceptance criterion: every registered adversary at n=13, t=4 audits
  // clean — the paper's budgets hold and the auditor raises no alarm.
  const std::vector<std::string> names = adversary::adversary_names();
  ASSERT_GE(names.size(), 13u);
  for (const std::string& name : names) {
    const MetricsCapture capture = run_with_metrics(op_config(13, 4, name, 11));
    EXPECT_TRUE(capture.result.report.all_ok()) << name;
    ASSERT_TRUE(capture.auditor.complete()) << name;
    EXPECT_TRUE(capture.auditor.all_ok()) << name;
    for (const obs::AuditBound& bound : capture.auditor.bounds()) {
      EXPECT_TRUE(bound.ok) << name << ": " << bound.bound << " observed " << bound.observed
                            << (bound.upper ? " > " : " < ") << bound.limit << " " << bound.detail;
    }
  }
}

TEST(ComplexityAuditor, OpRunChecksAllFourBounds) {
  const MetricsCapture capture = run_with_metrics(op_config(13, 4, "asymflood", 1));
  ASSERT_TRUE(capture.auditor.complete());
  std::vector<std::string> ids;
  for (const obs::AuditBound& bound : capture.auditor.bounds()) ids.push_back(bound.bound);
  const std::vector<std::string> expected{"steps", "messages", "bit_size", "rank_contraction"};
  EXPECT_EQ(ids, expected);
  // Default iterations at t=4 resolve to the theorem's closed form.
  EXPECT_EQ(capture.auditor.bounds().front().formula, "3*ceil(log2 t)+7 (Thm. IV.12)");
  EXPECT_EQ(capture.auditor.bounds().front().limit, 13.0);
}

TEST(ComplexityAuditor, FastRenamingChecksLemmaSixBounds) {
  core::ScenarioConfig config = op_config(11, 2, "suppress", 9);
  config.algorithm = core::Algorithm::kFastRenaming;
  const MetricsCapture capture = run_with_metrics(config);
  ASSERT_TRUE(capture.auditor.complete());
  EXPECT_TRUE(capture.auditor.all_ok());

  bool saw_discrepancy = false;
  bool saw_gap = false;
  for (const obs::AuditBound& bound : capture.auditor.bounds()) {
    if (bound.bound == "steps") {
      EXPECT_EQ(bound.limit, 2.0);
    }
    if (bound.bound == "fast_discrepancy") {
      saw_discrepancy = true;
      EXPECT_TRUE(bound.upper);
      EXPECT_EQ(bound.limit, 2.0 * 2 * 2);  // 2t^2, t=2
    }
    if (bound.bound == "fast_gap") {
      saw_gap = true;
      EXPECT_FALSE(bound.upper);  // the one lower bound
      EXPECT_EQ(bound.limit, 9.0);  // N - t
    }
  }
  EXPECT_TRUE(saw_discrepancy);
  EXPECT_TRUE(saw_gap);
}

TEST(ComplexityAuditor, BaselineRunsAuditOnlyTheMessageBudget) {
  core::ScenarioConfig config = op_config(10, 3, "crash", 5);
  config.algorithm = core::Algorithm::kCrashRenaming;
  const MetricsCapture capture = run_with_metrics(config);
  ASSERT_TRUE(capture.auditor.complete());
  EXPECT_TRUE(capture.auditor.all_ok());
  for (const obs::AuditBound& bound : capture.auditor.bounds()) {
    EXPECT_EQ(bound.bound, "messages");
  }
}

TEST(ComplexityAuditor, ContractionRateMatchesFindingOne) {
  EXPECT_EQ(ComplexityAuditor::contraction_rate(13, 4), 2);   // floor(4/4)+1
  EXPECT_EQ(ComplexityAuditor::contraction_rate(10, 3), 2);   // floor(3/3)+1
  EXPECT_EQ(ComplexityAuditor::contraction_rate(40, 13), 2);  // floor(13/13)+1
  EXPECT_EQ(ComplexityAuditor::contraction_rate(22, 4), 4);   // floor(13/4)+1
  // One below Lemma IV.8's floor((N-2t)/t)+1 exactly when t | (N-2t).
  EXPECT_EQ(ComplexityAuditor::contraction_rate(12, 3), 2);   // lemma rate: 3
}

TEST(AuditJsonl, VerdictRoundTripsThroughParseJson) {
  const MetricsCapture capture = run_with_metrics(op_config(13, 4, "asymflood", 11));
  std::ostringstream out;
  capture.auditor.write_audit_jsonl(out);
  const JsonValue record = obs::parse_json(out.str());
  EXPECT_EQ(record.at("schema").as_string(), obs::kAuditSchema);
  const JsonValue& verdict = record.at("verdict");
  EXPECT_TRUE(verdict.at("complete").as_bool());
  EXPECT_TRUE(verdict.at("all_ok").as_bool());
  EXPECT_EQ(verdict.at("violations").as_int(), 0);
  const auto& bounds = record.at("bounds").as_array();
  EXPECT_EQ(verdict.at("bounds_checked").as_int(), static_cast<std::int64_t>(bounds.size()));
  for (const JsonValue& bound : bounds) {
    EXPECT_FALSE(bound.at("bound").as_string().empty());
    EXPECT_FALSE(bound.at("formula").as_string().empty());
    const std::string direction = bound.at("direction").as_string();
    EXPECT_TRUE(direction == "upper" || direction == "lower") << direction;
    EXPECT_TRUE(bound.at("ok").as_bool());
    // limit/observed are plain finite numbers (ints or doubles).
    const JsonValue& limit = bound.at("limit");
    EXPECT_TRUE(limit.kind() == JsonValue::Kind::kInt ||
                limit.kind() == JsonValue::Kind::kDouble);
  }
}

// ---------------------------------------------------------------------------
// Golden file: a full N=16 run's metrics stream, byte for byte

TEST(MetricsJsonl, GoldenStreamForNSixteenRun) {
  const MetricsCapture capture = run_with_metrics(op_config(16, 5, "asymflood", 5));
  std::ostringstream out;
  capture.sink.write_metrics_jsonl(out);

  const std::string path = std::string(BYZRENAME_TEST_GOLDEN_DIR) + "/metrics_n16.jsonl";
  if (std::getenv("BYZRENAME_REGEN_GOLDEN") != nullptr) {
    std::ofstream regen(path, std::ios::trunc);
    ASSERT_TRUE(regen.is_open()) << "cannot regenerate " << path;
    regen << out.str();
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path
                            << " (regenerate with BYZRENAME_REGEN_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(out.str(), golden.str())
      << "metrics stream drifted from tests/golden/metrics_n16.jsonl; if the change is "
         "intentional, rerun with BYZRENAME_REGEN_GOLDEN=1 and commit the diff";
}

}  // namespace
