#include "obs/run_report.h"

#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/harness.h"
#include "obs/json.h"
#include "obs/schema.h"

namespace byzrename::obs {

void write_round_counters(JsonWriter& json, const sim::RoundMetrics& metrics) {
  json.field("messages", metrics.messages)
      .field("bits", metrics.bits)
      .field("correct_messages", metrics.correct_messages)
      .field("correct_bits", metrics.correct_bits)
      .field("equivocating_sends", metrics.equivocating_sends)
      .field("max_message_bits", metrics.max_message_bits)
      .field("max_correct_message_bits", metrics.max_correct_message_bits);
}

void write_round_measurements(JsonWriter& json, const RoundSample& sample) {
  if (sample.has_acceptance) {
    json.key("accepted").begin_object();
    json.field("min", sample.min_accepted).field("max", sample.max_accepted);
    json.end_object();
    json.field("rejected_votes", sample.rejected_votes);
  }
  if (sample.has_rank_probes) {
    json.field("rank_spread", sample.rank_spread)
        .field("rank_spread_exact", sample.rank_spread_exact)
        .field("adjacent_gap", sample.adjacent_gap)
        .field("adjacent_gap_exact", sample.adjacent_gap_exact);
  }
  if (sample.has_fast_probes) {
    json.field("fast_max_discrepancy", static_cast<std::int64_t>(sample.fast_max_discrepancy))
        .field("fast_min_gap", static_cast<std::int64_t>(sample.fast_min_gap));
  }
}

RunReportSink::RunReportSink(std::ostream& os, std::string bench, std::mutex* write_mutex)
    : os_(os), bench_(std::move(bench)), write_mutex_(write_mutex) {}

void RunReportSink::on_run_start(const RunInfo& info) {
  info_ = info;
  rounds_.clear();
}

void RunReportSink::on_round(const RoundSample& sample, const sim::Network&) {
  rounds_.push_back(sample);
}

void RunReportSink::on_run_end(const RunSummary& summary) {
  const core::ScenarioResult& result = summary.result;
  const sim::Metrics& metrics = result.run.metrics;

  // Render into a private buffer first: the stream sees exactly one
  // append per run, which the optional mutex turns into an atomic line.
  std::ostringstream line;
  JsonWriter json(line);
  json.begin_object();
  json.field("schema", kRunSchema);
  if (!bench_.empty()) json.field("bench", bench_);
  if (!label_.empty()) json.field("label", label_);

  json.key("scenario").begin_object();
  json.field("algorithm", core::to_string(info_.algorithm))
      .field("n", info_.n)
      .field("t", info_.t)
      .field("faults", info_.faults)
      .field("adversary", info_.adversary)
      .field("seed", static_cast<std::uint64_t>(info_.seed))
      .field("iterations", info_.iterations)
      .field("validate_votes", info_.validate_votes)
      .field("target_namespace", static_cast<std::int64_t>(info_.target_namespace))
      .field("round_budget", info_.round_budget);
  if (!info_.fault_plan.empty()) json.field("fault_plan", info_.fault_plan);
  json.end_object();

  json.key("outcome").begin_object();
  json.field("rounds", result.run.rounds)
      .field("terminated", result.run.terminated)
      .field("wall_seconds", summary.wall_seconds)
      .field("max_name", static_cast<std::int64_t>(result.report.max_name))
      .field("min_name", static_cast<std::int64_t>(result.report.min_name));
  json.key("accepted").begin_object();
  json.field("min", result.min_accepted).field("max", result.max_accepted);
  json.end_object();
  json.field("rejected_votes", result.total_rejected);
  json.key("verdict").begin_object();
  json.field("validity", result.report.validity)
      .field("termination", result.report.termination)
      .field("uniqueness", result.report.uniqueness)
      .field("order_preservation", result.report.order_preservation)
      .field("all_ok", result.report.all_ok())
      .field("classes", result.report.classes())
      .field("detail", result.report.detail);
  // Transient-restart dimension; omitted on runs without restarts so
  // pre-existing reports keep their exact bytes.
  if (result.report.restarted > 0) {
    json.field("restarted", result.report.restarted)
        .field("recovered", result.report.recovered);
  }
  json.end_object();
  json.end_object();

  json.key("totals").begin_object();
  json.field("messages", metrics.total_messages())
      .field("bits", metrics.total_bits())
      .field("correct_messages", metrics.total_correct_messages())
      .field("correct_bits", metrics.total_correct_bits())
      .field("equivocating_sends", metrics.total_equivocating_sends())
      .field("max_message_bits", metrics.max_message_bits())
      .field("max_correct_message_bits", metrics.max_correct_message_bits())
      .field("injected_drops", metrics.total_injected_drops())
      .field("injected_duplicates", metrics.total_injected_duplicates())
      .field("injected_delays", metrics.total_injected_delays());
  if (metrics.total_injected_forgeries() > 0) {
    json.field("injected_forgeries", metrics.total_injected_forgeries());
  }
  if (metrics.total_injected_restarts() > 0) {
    json.field("injected_restarts", metrics.total_injected_restarts());
  }
  json.end_object();

  json.key("per_round").begin_array();
  for (const RoundSample& sample : rounds_) {
    json.begin_object();
    json.field("round", sample.round);
    write_round_counters(json, sample.metrics);
    json.field("wall_seconds", sample.wall_seconds);
    write_round_measurements(json, sample);
    json.end_object();
  }
  json.end_array();

  json.end_object();
  line << '\n';
  std::unique_lock<std::mutex> lock;
  if (write_mutex_ != nullptr) lock = std::unique_lock<std::mutex>(*write_mutex_);
  os_ << line.str();
  os_.flush();
}

}  // namespace byzrename::obs
