#include "obs/metrics_registry.h"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/json.h"
#include "obs/run_report.h"
#include "obs/schema.h"

namespace byzrename::obs {

void write_prometheus_label_value(std::ostream& os, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\': os << "\\\\"; break;
      case '"': os << "\\\""; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
}

void write_prometheus_help(std::ostream& os, std::string_view help) {
  for (const char c : help) {
    switch (c) {
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
}

MetricsRegistry::Handle MetricsRegistry::counter(std::string name, std::string help,
                                                 std::string phase) {
  // The key must be computed before the call: parameter construction
  // may move from `phase` first, making phase.empty() always true.
  std::string label_key = phase.empty() ? std::string() : std::string("phase");
  return labeled_counter(std::move(name), std::move(help), std::move(label_key),
                         std::move(phase));
}

MetricsRegistry::Handle MetricsRegistry::labeled_counter(std::string name, std::string help,
                                                         std::string label_key,
                                                         std::string label_value) {
  Instrument instrument;
  instrument.kind = Kind::kCounter;
  instrument.name = std::move(name);
  instrument.help = std::move(help);
  instrument.label_key = std::move(label_key);
  instrument.label_value = std::move(label_value);
  instruments_.push_back(std::move(instrument));
  return instruments_.size() - 1;
}

MetricsRegistry::Handle MetricsRegistry::gauge(std::string name, std::string help) {
  return labeled_gauge(std::move(name), std::move(help), {}, {});
}

MetricsRegistry::Handle MetricsRegistry::labeled_gauge(std::string name, std::string help,
                                                       std::string label_key,
                                                       std::string label_value) {
  Instrument instrument;
  instrument.kind = Kind::kGauge;
  instrument.name = std::move(name);
  instrument.help = std::move(help);
  instrument.label_key = std::move(label_key);
  instrument.label_value = std::move(label_value);
  instruments_.push_back(std::move(instrument));
  return instruments_.size() - 1;
}

MetricsRegistry::Handle MetricsRegistry::histogram(std::string name, std::string help,
                                                   std::vector<std::uint64_t> upper_bounds) {
  if (upper_bounds.empty()) {
    throw std::invalid_argument("MetricsRegistry::histogram: at least one finite bound required");
  }
  for (std::size_t i = 1; i < upper_bounds.size(); ++i) {
    if (upper_bounds[i] <= upper_bounds[i - 1]) {
      throw std::invalid_argument("MetricsRegistry::histogram: bounds must strictly increase");
    }
  }
  Instrument instrument;
  instrument.kind = Kind::kHistogram;
  instrument.name = std::move(name);
  instrument.help = std::move(help);
  instrument.bucket_counts.assign(upper_bounds.size() + 1, 0);
  instrument.bounds = std::move(upper_bounds);
  instruments_.push_back(std::move(instrument));
  return instruments_.size() - 1;
}

void MetricsRegistry::add(Handle counter, std::uint64_t delta) {
  Instrument& instrument = instruments_.at(counter);
  if (instrument.kind != Kind::kCounter) {
    throw std::invalid_argument("MetricsRegistry::add: not a counter");
  }
  instrument.count += delta;
  instrument.touched = true;
}

void MetricsRegistry::set(Handle gauge, double value) {
  Instrument& instrument = instruments_.at(gauge);
  if (instrument.kind != Kind::kGauge) {
    throw std::invalid_argument("MetricsRegistry::set: not a gauge");
  }
  instrument.gauge = value;
  instrument.touched = true;
}

void MetricsRegistry::observe(Handle histogram, std::uint64_t value) {
  Instrument& instrument = instruments_.at(histogram);
  if (instrument.kind != Kind::kHistogram) {
    throw std::invalid_argument("MetricsRegistry::observe: not a histogram");
  }
  // First bucket whose inclusive upper bound holds the value; the +Inf
  // overflow bucket is the final slot.
  const auto it = std::lower_bound(instrument.bounds.begin(), instrument.bounds.end(), value);
  instrument.bucket_counts[static_cast<std::size_t>(it - instrument.bounds.begin())] += 1;
  instrument.count += 1;
  instrument.sum += value;
  instrument.touched = true;
}

std::uint64_t MetricsRegistry::counter_value(Handle handle) const {
  return instruments_.at(handle).count;
}

double MetricsRegistry::gauge_value(Handle handle) const {
  return instruments_.at(handle).gauge;
}

std::uint64_t MetricsRegistry::histogram_count(Handle handle) const {
  return instruments_.at(handle).count;
}

std::uint64_t MetricsRegistry::histogram_sum(Handle handle) const {
  return instruments_.at(handle).sum;
}

std::vector<std::uint64_t> MetricsRegistry::exponential_bounds(std::uint64_t first,
                                                               std::uint64_t factor, int count) {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  std::uint64_t bound = first;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  // Families are emitted in first-registration order, each series under
  // its family's single # HELP/# TYPE header even when registrations
  // interleaved (the service registers per-tenant series as sessions
  // arrive). Quadratic in the instrument count, which stays small; the
  // hot path is add()/observe(), never exposition.
  const auto write_series = [&os](const Instrument& instrument) {
    const auto write_name_and_label = [&] {
      os << instrument.name;
      if (!instrument.label_key.empty()) {
        os << '{' << instrument.label_key << "=\"";
        write_prometheus_label_value(os, instrument.label_value);
        os << "\"}";
      }
    };
    switch (instrument.kind) {
      case Kind::kCounter:
        write_name_and_label();
        os << ' ' << instrument.count << '\n';
        break;
      case Kind::kGauge:
        write_name_and_label();
        os << ' ' << instrument.gauge << '\n';
        break;
      case Kind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < instrument.bounds.size(); ++i) {
          cumulative += instrument.bucket_counts[i];
          os << instrument.name << "_bucket{le=\"" << instrument.bounds[i] << "\"} "
             << cumulative << '\n';
        }
        os << instrument.name << "_bucket{le=\"+Inf\"} " << instrument.count << '\n';
        os << instrument.name << "_sum " << instrument.sum << '\n';
        os << instrument.name << "_count " << instrument.count << '\n';
        break;
      }
    }
  };

  std::vector<bool> emitted(instruments_.size(), false);
  for (std::size_t i = 0; i < instruments_.size(); ++i) {
    if (emitted[i] || !instruments_[i].touched) continue;
    const Instrument& head = instruments_[i];
    os << "# HELP " << head.name << ' ';
    write_prometheus_help(os, head.help);
    os << '\n';
    os << "# TYPE " << head.name << ' '
       << (head.kind == Kind::kCounter ? "counter"
           : head.kind == Kind::kGauge ? "gauge"
                                       : "histogram")
       << '\n';
    for (std::size_t j = i; j < instruments_.size(); ++j) {
      if (emitted[j] || !instruments_[j].touched || instruments_[j].name != head.name) continue;
      write_series(instruments_[j]);
      emitted[j] = true;
    }
  }
  os.flush();
}

// --- MetricsSink ----------------------------------------------------------

void MetricsSink::on_run_start(const RunInfo& info) {
  info_ = info;
  rows_.clear();
  registry_.clear();

  // Every phase's counter family is registered up front (families
  // consecutive, series per phase), so on_round is pure indexing. Series
  // a run never touches are dropped from the Prometheus dump.
  constexpr core::Phase kPhases[] = {core::Phase::kSelection, core::Phase::kEcho,
                                     core::Phase::kReady,     core::Phase::kVoting,
                                     core::Phase::kDecision,  core::Phase::kProtocol};
  per_phase_.assign(std::size(kPhases), PhaseCounters{});
  const auto register_family =
      [&](const char* name, const char* help, MetricsRegistry::Handle PhaseCounters::*slot) {
        for (const core::Phase phase : kPhases) {
          per_phase_[static_cast<std::size_t>(phase)].*slot =
              registry_.counter(name, help, core::to_string(phase));
        }
      };
  register_family("byzrename_messages_total", "Messages delivered, by protocol phase.",
                  &PhaseCounters::messages);
  register_family("byzrename_bits_total", "Wire bits delivered, by protocol phase.",
                  &PhaseCounters::bits);
  register_family("byzrename_correct_messages_total",
                  "Messages from correct senders, by protocol phase.",
                  &PhaseCounters::correct_messages);
  register_family("byzrename_correct_bits_total",
                  "Wire bits from correct senders, by protocol phase.",
                  &PhaseCounters::correct_bits);
  register_family("byzrename_equivocating_sends_total",
                  "Targeted Byzantine sends, by protocol phase.",
                  &PhaseCounters::equivocating_sends);
  register_family("byzrename_injected_faults_total",
                  "Fault-injector interventions (drops+duplicates+delays), by phase.",
                  &PhaseCounters::injected_faults);

  rounds_total_ = registry_.counter("byzrename_rounds_total", "Synchronous rounds executed.");
  rank_spread_ = registry_.gauge("byzrename_rank_spread",
                                 "Delta_r: max per-id rank spread over correct processes "
                                 "(Lemmas IV.7-9); last sampled round.");
  adjacent_gap_ = registry_.gauge("byzrename_adjacent_rank_gap",
                                  "Min adjacent rank gap (Corollary IV.6); last sampled round.");
  accepted_min_ = registry_.gauge("byzrename_accepted_min",
                                  "Min |accepted| over correct processes; last sampled round.");
  accepted_max_ = registry_.gauge("byzrename_accepted_max",
                                  "Max |accepted| over correct processes; last sampled round.");
  rejected_votes_ = registry_.gauge("byzrename_rejected_votes",
                                    "Votes/echoes killed by validation, cumulative.");
  round_messages_hist_ =
      registry_.histogram("byzrename_round_messages", "Messages delivered per round.",
                          MetricsRegistry::exponential_bounds(1, 4, 16));
  message_bits_hist_ =
      registry_.histogram("byzrename_message_bits", "Largest single message per round, bits.",
                          MetricsRegistry::exponential_bounds(8, 2, 24));
}

void MetricsSink::on_round(const RoundSample& sample, const sim::Network&) {
  const core::RoundPhase phase =
      core::round_phase(info_.algorithm, sample.round, info_.iterations);
  const PhaseCounters& counters = per_phase_[static_cast<std::size_t>(phase.phase)];
  registry_.add(counters.messages, sample.metrics.messages);
  registry_.add(counters.bits, sample.metrics.bits);
  registry_.add(counters.correct_messages, sample.metrics.correct_messages);
  registry_.add(counters.correct_bits, sample.metrics.correct_bits);
  registry_.add(counters.equivocating_sends, sample.metrics.equivocating_sends);
  registry_.add(counters.injected_faults, sample.metrics.injected_drops +
                                              sample.metrics.injected_duplicates +
                                              sample.metrics.injected_delays +
                                              sample.metrics.injected_forgeries +
                                              sample.metrics.injected_restarts);
  registry_.add(rounds_total_, 1);
  if (sample.has_rank_probes) {
    registry_.set(rank_spread_, sample.rank_spread);
    registry_.set(adjacent_gap_, sample.adjacent_gap);
  }
  if (sample.has_acceptance) {
    registry_.set(accepted_min_, static_cast<double>(sample.min_accepted));
    registry_.set(accepted_max_, static_cast<double>(sample.max_accepted));
    registry_.set(rejected_votes_, static_cast<double>(sample.rejected_votes));
  }
  registry_.observe(round_messages_hist_, sample.metrics.messages);
  if (sample.metrics.max_message_bits > 0) {
    registry_.observe(message_bits_hist_, sample.metrics.max_message_bits);
  }
  rows_.push_back({sample, phase});
}

void MetricsSink::write_metrics_jsonl(std::ostream& os) const {
  for (const Row& row : rows_) {
    const RoundSample& sample = row.sample;
    JsonWriter json(os);
    json.begin_object();
    json.field("schema", kMetricsSchema);
    json.key("run").begin_object();
    json.field("algorithm", core::to_string(info_.algorithm))
        .field("n", info_.n)
        .field("t", info_.t)
        .field("faults", info_.faults)
        .field("adversary", info_.adversary)
        .field("seed", static_cast<std::uint64_t>(info_.seed))
        .field("iterations", info_.iterations);
    json.end_object();
    json.field("round", sample.round)
        .field("phase", core::to_string(row.phase.phase))
        .field("voting_iteration", row.phase.voting_iteration);
    write_round_counters(json, sample.metrics);
    json.field("injected_drops", sample.metrics.injected_drops)
        .field("injected_duplicates", sample.metrics.injected_duplicates)
        .field("injected_delays", sample.metrics.injected_delays);
    // New-family counters are omitted when zero so the golden metrics
    // files (and their byte-compare CI gate) stay valid.
    if (sample.metrics.injected_forgeries > 0) {
      json.field("injected_forgeries", sample.metrics.injected_forgeries);
    }
    if (sample.metrics.injected_restarts > 0) {
      json.field("injected_restarts", sample.metrics.injected_restarts);
    }
    write_round_measurements(json, sample);
    json.end_object();
    os << '\n';
  }
  os.flush();
}

}  // namespace byzrename::obs
