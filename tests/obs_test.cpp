// Tests for the src/obs run-telemetry subsystem: the run observer list,
// streaming JSON writer, the byzrename.run/1 JSONL report round-trip,
// and the Chrome trace-event exporter.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "obs/json.h"
#include "obs/run_report.h"
#include "obs/schema.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"
#include "trace/event_log.h"

namespace byzrename::obs {
namespace {

// --- Minimal recursive-descent JSON reader (tests only) -------------------
//
// Just enough of RFC 8259 to round-trip what the writer emits; throws
// std::runtime_error on malformed input so schema bugs fail loudly.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;                            // Type::kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // Type::kObject

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return value;
    }
    throw std::runtime_error("missing key: " + key);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return true;
    }
    return false;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing garbage after JSON value");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end of JSON");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect_word(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      throw std::runtime_error("bad literal, expected " + word);
    }
    pos_ += word.size();
  }

  JsonValue parse_value() {
    JsonValue value;
    switch (peek()) {
      case '{': {
        value.type = JsonValue::Type::kObject;
        ++pos_;
        if (consume('}')) return value;
        do {
          JsonValue key = parse_string();
          expect(':');
          value.members.emplace_back(key.string, parse_value());
        } while (consume(','));
        expect('}');
        return value;
      }
      case '[': {
        value.type = JsonValue::Type::kArray;
        ++pos_;
        if (consume(']')) return value;
        do {
          value.array.push_back(parse_value());
        } while (consume(','));
        expect(']');
        return value;
      }
      case '"':
        return parse_string();
      case 't':
        expect_word("true");
        value.type = JsonValue::Type::kBool;
        value.boolean = true;
        return value;
      case 'f':
        expect_word("false");
        value.type = JsonValue::Type::kBool;
        return value;
      case 'n':
        expect_word("null");
        return value;
      default: {
        value.type = JsonValue::Type::kNumber;
        std::size_t end = pos_;
        while (end < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[end])) || text_[end] == '-' ||
                text_[end] == '+' || text_[end] == '.' || text_[end] == 'e' ||
                text_[end] == 'E')) {
          ++end;
        }
        value.number = std::stod(text_.substr(pos_, end - pos_));
        pos_ = end;
        return value;
      }
    }
  }

  JsonValue parse_string() {
    JsonValue value;
    value.type = JsonValue::Type::kString;
    expect('"');
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        value.string.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) throw std::runtime_error("dangling escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': value.string.push_back('"'); break;
        case '\\': value.string.push_back('\\'); break;
        case '/': value.string.push_back('/'); break;
        case 'n': value.string.push_back('\n'); break;
        case 'r': value.string.push_back('\r'); break;
        case 't': value.string.push_back('\t'); break;
        case 'b': value.string.push_back('\b'); break;
        case 'f': value.string.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u escape");
          const int code = std::stoi(text_.substr(pos_, 4), nullptr, 16);
          pos_ += 4;
          if (code > 0x7f) throw std::runtime_error("non-ASCII \\u escape unsupported in tests");
          value.string.push_back(static_cast<char>(code));
          break;
        }
        default: throw std::runtime_error("unknown escape");
      }
    }
    expect('"');
    return value;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

// --- RunObserver: the one observation seam --------------------------------

/// Records every hook call as "<name>:<hook><round>".
class Recorder final : public RunObserver {
 public:
  Recorder(std::string name, std::vector<std::string>& log, Sampling sampling = Sampling::kNone)
      : name_(std::move(name)), log_(log), sampling_(sampling) {}

  [[nodiscard]] Sampling sampling() const override { return sampling_; }
  void on_run_start(const RunInfo&) override { log_.push_back(name_ + ":start"); }
  void on_round_begin(sim::Round round) override { add("begin", round); }
  void on_round_end(sim::Round round) override { add("end", round); }
  void on_round(const RoundSample& sample, const sim::Network&) override {
    add("round", sample.round);
    samples.push_back(sample);
  }
  void on_run_end(const RunSummary&) override { log_.push_back(name_ + ":finish"); }

  std::vector<RoundSample> samples;

 private:
  void add(const char* hook, sim::Round round) {
    log_.push_back(name_ + ':' + hook + std::to_string(round));
  }

  std::string name_;
  std::vector<std::string>& log_;
  Sampling sampling_;
};

TEST(RunObserver, RunInRegistrationOrder) {
  std::vector<std::string> log;
  Recorder probe("probe", log);
  Recorder watchdog("watchdog", log);
  Recorder sink("sink", log, Sampling::kCounters);
  core::ScenarioConfig config;
  config.params = {.n = 4, .t = 1};
  config.observers = {&probe, &watchdog, &sink};
  const core::ScenarioResult result = core::run_scenario(config);
  ASSERT_GE(result.run.rounds, 2);

  std::vector<std::string> expected = {"probe:start", "watchdog:start", "sink:start"};
  for (int r = 1; r <= result.run.rounds; ++r) {
    const std::string round = std::to_string(r);
    // Brackets nest: begin in list order, end in reverse; the per-round
    // hook follows the closed bracket in list order.
    for (const char* name : {"probe", "watchdog", "sink"}) {
      expected.push_back(std::string(name) + ":begin" + round);
    }
    for (const char* name : {"sink", "watchdog", "probe"}) {
      expected.push_back(std::string(name) + ":end" + round);
    }
    for (const char* name : {"probe", "watchdog", "sink"}) {
      expected.push_back(std::string(name) + ":round" + round);
    }
  }
  for (const char* name : {"probe", "watchdog", "sink"}) {
    expected.push_back(std::string(name) + ":finish");
  }
  EXPECT_EQ(log, expected);
}

TEST(RunObserver, SampleIsFilledToTheMostDemandingObserver) {
  const auto run_with = [](Sampling level) {
    std::vector<std::string> log;
    Recorder probe("probe", log);
    Recorder sink("sink", log, level);
    core::ScenarioConfig config;
    config.params = {.n = 7, .t = 2};
    config.adversary = "split";
    config.seed = 3;
    config.observers = {&probe, &sink};
    const core::ScenarioResult result = core::run_scenario(config);
    EXPECT_EQ(probe.samples.size(), static_cast<std::size_t>(result.run.rounds));
    return probe.samples;
  };

  // Every observer sees the same sample, filled to the list's level.
  const std::vector<RoundSample> bare = run_with(Sampling::kNone);
  const std::vector<RoundSample> counters = run_with(Sampling::kCounters);
  const std::vector<RoundSample> probes = run_with(Sampling::kProbes);
  ASSERT_FALSE(bare.empty());
  for (const RoundSample& sample : bare) {
    EXPECT_EQ(sample.metrics.messages, 0u);
    EXPECT_FALSE(sample.has_acceptance);
    EXPECT_FALSE(sample.has_rank_probes);
  }
  std::uint64_t messages = 0;
  for (const RoundSample& sample : counters) {
    messages += sample.metrics.messages;
    EXPECT_TRUE(sample.has_acceptance);
    EXPECT_FALSE(sample.has_rank_probes);
  }
  EXPECT_GT(messages, 0u);
  EXPECT_TRUE(probes.back().has_rank_probes);
}

// --- JsonWriter ------------------------------------------------------------

TEST(JsonWriter, EscapesAndNestsCorrectly) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("plain", std::string("a\"b\\c\nd\te"));
  json.field("int", static_cast<std::int64_t>(-42));
  json.field("flag", true);
  json.key("nested").begin_array();
  json.value(static_cast<std::int64_t>(1));
  json.begin_object();
  json.field("x", 2.5);
  json.end_object();
  json.end_array();
  json.end_object();

  const JsonValue parsed = JsonReader(out.str()).parse();
  EXPECT_EQ(parsed.at("plain").string, "a\"b\\c\nd\te");
  EXPECT_EQ(parsed.at("int").number, -42.0);
  EXPECT_TRUE(parsed.at("flag").boolean);
  ASSERT_EQ(parsed.at("nested").array.size(), 2u);
  EXPECT_EQ(parsed.at("nested").array[1].at("x").number, 2.5);
}

TEST(JsonWriter, ControlCharactersBecomeUnicodeEscapes) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("ctl", std::string("a\x01z"));
  json.end_object();
  EXPECT_NE(out.str().find("\\u0001"), std::string::npos);
  EXPECT_EQ(JsonReader(out.str()).parse().at("ctl").string, std::string("a\x01z"));
}

// --- RunReportSink: schema round-trip against a real run -------------------

struct Capture {
  core::ScenarioResult result;
  JsonValue report;
};

Capture run_and_parse(core::ScenarioConfig config, std::string label = {}) {
  std::ostringstream out;
  RunReportSink sink(out, "obs_test");
  sink.set_label(label);
  config.observers = {&sink};
  Capture capture;
  capture.result = core::run_scenario(config);
  const std::string line = out.str();
  EXPECT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');  // JSONL: exactly one newline-terminated line
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  capture.report = JsonReader(line.substr(0, line.size() - 1)).parse();
  return capture;
}

TEST(RunReportSink, RoundTripsScenarioAndTotals) {
  core::ScenarioConfig config;
  config.params = {.n = 10, .t = 3};
  config.adversary = "asymflood";
  config.seed = 42;
  const Capture capture = run_and_parse(config, "row 1");
  const JsonValue& report = capture.report;
  const core::ScenarioResult& result = capture.result;
  ASSERT_TRUE(result.report.all_ok()) << result.report.detail;

  EXPECT_EQ(report.at("schema").string, kRunSchema);
  EXPECT_EQ(report.at("bench").string, "obs_test");
  EXPECT_EQ(report.at("label").string, "row 1");

  const JsonValue& scenario = report.at("scenario");
  EXPECT_EQ(scenario.at("algorithm").string, "op-renaming");
  EXPECT_EQ(scenario.at("n").number, 10.0);
  EXPECT_EQ(scenario.at("t").number, 3.0);
  EXPECT_EQ(scenario.at("faults").number, 3.0);
  EXPECT_EQ(scenario.at("adversary").string, "asymflood");
  EXPECT_EQ(scenario.at("seed").number, 42.0);
  EXPECT_TRUE(scenario.at("validate_votes").boolean);
  EXPECT_EQ(scenario.at("target_namespace").number, 12.0);  // N+t-1

  const JsonValue& outcome = report.at("outcome");
  EXPECT_EQ(outcome.at("rounds").number, result.run.rounds);
  EXPECT_TRUE(outcome.at("terminated").boolean);
  EXPECT_EQ(outcome.at("max_name").number, static_cast<double>(result.report.max_name));
  EXPECT_GE(outcome.at("wall_seconds").number, 0.0);
  EXPECT_EQ(outcome.at("accepted").at("max").number,
            static_cast<double>(result.max_accepted));
  EXPECT_TRUE(outcome.at("verdict").at("all_ok").boolean);

  const sim::Metrics& metrics = result.run.metrics;
  const JsonValue& totals = report.at("totals");
  EXPECT_EQ(totals.at("messages").number, static_cast<double>(metrics.total_messages()));
  EXPECT_EQ(totals.at("bits").number, static_cast<double>(metrics.total_bits()));
  EXPECT_EQ(totals.at("correct_messages").number,
            static_cast<double>(metrics.total_correct_messages()));
  EXPECT_EQ(totals.at("equivocating_sends").number,
            static_cast<double>(metrics.total_equivocating_sends()));
}

TEST(RunReportSink, PerRoundSeriesMatchesMetrics) {
  core::ScenarioConfig config;
  config.params = {.n = 7, .t = 2};
  config.adversary = "split";
  config.seed = 3;
  const Capture capture = run_and_parse(config);
  const std::vector<sim::RoundMetrics>& per_round = capture.result.run.metrics.per_round();

  const JsonValue& series = capture.report.at("per_round");
  ASSERT_EQ(series.array.size(), per_round.size());
  bool saw_rank_probe = false;
  for (std::size_t r = 0; r < per_round.size(); ++r) {
    const JsonValue& row = series.array[r];
    EXPECT_EQ(row.at("round").number, static_cast<double>(r + 1));
    EXPECT_EQ(row.at("messages").number, static_cast<double>(per_round[r].messages));
    EXPECT_EQ(row.at("bits").number, static_cast<double>(per_round[r].bits));
    EXPECT_EQ(row.at("correct_messages").number,
              static_cast<double>(per_round[r].correct_messages));
    EXPECT_EQ(row.at("equivocating_sends").number,
              static_cast<double>(per_round[r].equivocating_sends));
    EXPECT_GE(row.at("wall_seconds").number, 0.0);
    if (row.has("rank_spread")) {
      saw_rank_probe = true;
      EXPECT_FALSE(row.at("rank_spread_exact").string.empty());
    }
  }
  // Alg. 1 exposes rank probes once the voting phase is underway.
  EXPECT_TRUE(saw_rank_probe);
}

TEST(RunReportSink, FastRenamingEmitsFastProbes) {
  core::ScenarioConfig config;
  config.params = {.n = 11, .t = 2};
  config.algorithm = core::Algorithm::kFastRenaming;
  config.adversary = "suppress";
  config.seed = 9;
  const Capture capture = run_and_parse(config);
  const JsonValue& series = capture.report.at("per_round");
  ASSERT_FALSE(series.array.empty());
  bool saw_fast_probe = false;
  for (const JsonValue& row : series.array) {
    if (row.has("fast_max_discrepancy")) {
      saw_fast_probe = true;
      EXPECT_TRUE(row.has("fast_min_gap"));
    }
  }
  EXPECT_TRUE(saw_fast_probe);
  EXPECT_EQ(capture.report.at("scenario").at("iterations").number, -1.0);
}

TEST(RunReportSink, MultipleSinksSeeTheSameRun) {
  std::ostringstream first;
  std::ostringstream second;
  RunReportSink sink_a(first);
  RunReportSink sink_b(second, "twin");
  core::ScenarioConfig config;
  config.params = {.n = 4, .t = 1};
  config.observers = {&sink_a, &sink_b};
  (void)core::run_scenario(config);

  const JsonValue a = JsonReader(first.str()).parse();
  const JsonValue b = JsonReader(second.str()).parse();
  EXPECT_FALSE(a.has("bench"));
  EXPECT_EQ(b.at("bench").string, "twin");
  EXPECT_EQ(a.at("outcome").at("rounds").number, b.at("outcome").at("rounds").number);
  EXPECT_EQ(a.at("totals").at("messages").number, b.at("totals").at("messages").number);
}

// --- Chrome trace exporter -------------------------------------------------

TEST(TraceExport, EmitsWellFormedTraceEvents) {
  trace::EventLog log;
  core::ScenarioConfig config;
  config.params = {.n = 5, .t = 1};
  config.adversary = "split";
  config.seed = 2;
  config.event_log = &log;
  const core::ScenarioResult result = core::run_scenario(config);
  ASSERT_FALSE(log.empty());

  TraceMeta meta;
  meta.title = "obs_test trace";
  meta.process_count = 5;
  meta.rounds = result.run.rounds;
  meta.byzantine = {false, false, false, false, true};
  std::ostringstream out;
  write_chrome_trace(out, log, meta);

  const JsonValue trace = JsonReader(out.str()).parse();
  const JsonValue& events = trace.at("traceEvents");
  ASSERT_GT(events.array.size(), 0u);

  int metadata = 0;
  int slices = 0;
  int decide_slices = 0;
  for (const JsonValue& event : events.array) {
    const std::string& phase = event.at("ph").string;
    EXPECT_TRUE(event.has("pid"));
    EXPECT_TRUE(event.has("tid"));
    EXPECT_TRUE(event.has("name"));
    if (phase == "M") {
      ++metadata;
    } else {
      ASSERT_EQ(phase, "X");
      ++slices;
      EXPECT_GE(event.at("ts").number, 0.0);
      EXPECT_GT(event.at("dur").number, 0.0);
      if (event.at("cat").string.rfind("decide", 0) == 0) ++decide_slices;
    }
  }
  // thread_name per process + the rounds track + process_name at least.
  EXPECT_GE(metadata, 7);
  EXPECT_GT(slices, 0);
  // Every correct process decides exactly once.
  EXPECT_EQ(decide_slices, 4);
}

TEST(TraceExport, EmptyLogStillProducesValidJson) {
  trace::EventLog log;
  TraceMeta meta;
  meta.title = "empty";
  meta.process_count = 2;
  std::ostringstream out;
  write_chrome_trace(out, log, meta);
  const JsonValue trace = JsonReader(out.str()).parse();
  EXPECT_TRUE(trace.has("traceEvents"));
  EXPECT_EQ(trace.at("displayTimeUnit").string, "ms");
}

}  // namespace
}  // namespace byzrename::obs
