#include "obs/complexity_audit.h"

#include <cmath>
#include <ostream>
#include <string>

#include "core/harness.h"
#include "obs/json.h"
#include "obs/schema.h"

namespace byzrename::obs {

namespace {

/// ceil(log2(x)) for x >= 1; 0 for x <= 1 (matches core/params.h's
/// iteration-count convention where log of a single fault is 0).
int ceil_log2(int x) {
  int bits = 0;
  for (int v = 1; v < x; v *= 2) bits += 1;
  return bits;
}

/// Floating-point slack for the contraction envelope: the exact-rational
/// probe is rendered through a double, so allow relative epsilon plus a
/// tiny absolute floor for envelopes that reach zero.
constexpr double kRelTolerance = 1e-9;
constexpr double kAbsTolerance = 1e-9;

bool within_upper(double observed, double limit) {
  return observed <= limit * (1.0 + kRelTolerance) + kAbsTolerance;
}

}  // namespace

void ComplexityAuditor::on_run_start(const RunInfo& info) {
  *this = ComplexityAuditor();
  info_ = info;
}

void ComplexityAuditor::on_round(const RoundSample& sample, const sim::Network&) {
  const bool voting_shape = info_.algorithm == core::Algorithm::kOpRenaming ||
                            info_.algorithm == core::Algorithm::kOpRenamingConstantTime;
  if (voting_shape && sample.has_rank_probes && info_.t >= 1) {
    if (sample.round == 4) {
      // Delta_4: the spread the ready extension hands to the voting loop
      // (initial ranks are assigned at the end of round 4).
      have_baseline_ = true;
      baseline_spread_ = sample.rank_spread;
    } else if (sample.round > 4 && have_baseline_) {
      const int k = sample.round - 4;  // voting iteration, Lemma IV.8's r
      const double rate = contraction_rate(info_.n, info_.t);
      const double envelope = baseline_spread_ / std::pow(rate, k);
      // Keep the single worst round by margin over its own envelope.
      const bool worse = !have_contraction_ ||
                         sample.rank_spread - envelope > worst_spread_ - worst_envelope_;
      if (worse) {
        have_contraction_ = true;
        worst_spread_ = sample.rank_spread;
        worst_envelope_ = envelope;
        worst_round_ = sample.round;
        worst_iteration_ = k;
      }
    }
  }
  if (info_.algorithm == core::Algorithm::kFastRenaming &&
      sample.has_fast_probes) {
    const auto discrepancy = static_cast<double>(sample.fast_max_discrepancy);
    const auto gap = static_cast<double>(sample.fast_min_gap);
    if (!have_fast_) {
      have_fast_ = true;
      fast_worst_discrepancy_ = discrepancy;
      fast_worst_gap_ = gap;
      fast_discrepancy_round_ = fast_gap_round_ = sample.round;
    } else {
      if (discrepancy > fast_worst_discrepancy_) {
        fast_worst_discrepancy_ = discrepancy;
        fast_discrepancy_round_ = sample.round;
      }
      if (gap < fast_worst_gap_) {
        fast_worst_gap_ = gap;
        fast_gap_round_ = sample.round;
      }
    }
  }
}

void ComplexityAuditor::on_run_end(const RunSummary& summary) {
  bounds_.clear();
  const sim::Metrics& metrics = summary.result.run.metrics;
  const double n = info_.n;
  const double t = info_.t;
  const int rounds = summary.result.run.rounds;

  const bool voting_shape = info_.algorithm == core::Algorithm::kOpRenaming ||
                            info_.algorithm == core::Algorithm::kOpRenamingConstantTime;
  const bool fast = info_.algorithm == core::Algorithm::kFastRenaming;

  // steps: the protocol's closed-form round count. For op/const that is
  // 4 + iterations (Thm. IV.12's 3*ceil(log2 t)+7 when iterations keep
  // their default 3*ceil(log2 t)+3); for fast it is Alg. 4's 2 steps.
  if ((voting_shape && info_.iterations > 0) || fast) {
    AuditBound steps;
    steps.bound = "steps";
    if (fast) {
      steps.formula = "2 (Alg. 4)";
      steps.limit = 2.0;
    } else if (info_.iterations == 3 * ceil_log2(info_.t) + 3) {
      steps.formula = "3*ceil(log2 t)+7 (Thm. IV.12)";
      steps.limit = 4.0 + info_.iterations;
    } else {
      steps.formula = "4 + iterations (Alg. 1)";
      steps.limit = 4.0 + info_.iterations;
    }
    steps.observed = rounds;
    steps.ok = within_upper(steps.observed, steps.limit);
    bounds_.push_back(std::move(steps));
  }

  // messages: correct processes only broadcast, so the hard ceiling is
  // N^2 per round; the 4.5x measured envelope keeps the same shape with
  // slack to spare (EXPERIMENTS.md T4).
  {
    AuditBound messages;
    messages.bound = "messages";
    messages.formula = "4.5 * N^2 * rounds (Sec. IV-D, measured constant)";
    messages.limit = kMessageConstant * n * n * static_cast<double>(rounds > 0 ? rounds : 1);
    messages.observed = static_cast<double>(metrics.total_correct_messages());
    messages.ok = within_upper(messages.observed, messages.limit);
    messages.detail = std::to_string(rounds) + " rounds";
    bounds_.push_back(std::move(messages));
  }

  // bit_size: Section IV-D's vote-vector size — N+t accepted ids, each
  // carried with a 64-bit original id, a log N rank numerator, and the
  // codec's fixed per-entry overhead (measured 40 bits).
  if (voting_shape) {
    AuditBound bits;
    bits.bound = "bit_size";
    bits.formula = "(N+t)*(64+ceil(log2 N)+40) bits (Sec. IV-D)";
    bits.limit = (n + t) * (64.0 + ceil_log2(info_.n) + 40.0);
    bits.observed = static_cast<double>(metrics.max_correct_message_bits());
    bits.ok = within_upper(bits.observed, bits.limit);
    bounds_.push_back(std::move(bits));
  }

  // rank_contraction: Delta_r against the constructive per-iteration
  // contraction envelope (Finding #1's rate, seeded at Delta_4).
  if (have_contraction_) {
    AuditBound contraction;
    contraction.bound = "rank_contraction";
    contraction.formula = "Delta_4 / (floor((N-2t-1)/t)+1)^k (Lemma IV.8, Finding #1)";
    contraction.limit = worst_envelope_;
    contraction.observed = worst_spread_;
    contraction.ok = within_upper(contraction.observed, contraction.limit);
    contraction.detail = "round " + std::to_string(worst_round_) + " (k=" +
                         std::to_string(worst_iteration_) +
                         "), rate=" + std::to_string(contraction_rate(info_.n, info_.t));
    bounds_.push_back(std::move(contraction));
  }

  if (fast && have_fast_) {
    AuditBound discrepancy;
    discrepancy.bound = "fast_discrepancy";
    discrepancy.formula = "2*t^2 (Lemma VI.1)";
    discrepancy.limit = 2.0 * t * t;
    discrepancy.observed = fast_worst_discrepancy_;
    discrepancy.ok = within_upper(discrepancy.observed, discrepancy.limit);
    discrepancy.detail = "round " + std::to_string(fast_discrepancy_round_);
    bounds_.push_back(std::move(discrepancy));

    AuditBound gap;
    gap.bound = "fast_gap";
    gap.formula = "N-t (Lemma VI.2, lower bound)";
    gap.upper = false;
    gap.limit = n - t;
    gap.observed = fast_worst_gap_;
    gap.ok = gap.observed >= gap.limit * (1.0 - kRelTolerance) - kAbsTolerance;
    gap.detail = "round " + std::to_string(fast_gap_round_);
    bounds_.push_back(std::move(gap));
  }

  complete_ = true;
}

bool ComplexityAuditor::all_ok() const noexcept {
  for (const AuditBound& bound : bounds_) {
    if (!bound.ok) return false;
  }
  return true;
}

void ComplexityAuditor::write_audit_jsonl(std::ostream& os) const {
  JsonWriter json(os);
  json.begin_object();
  json.field("schema", kAuditSchema);
  json.key("run").begin_object();
  json.field("algorithm", core::to_string(info_.algorithm))
      .field("n", info_.n)
      .field("t", info_.t)
      .field("faults", info_.faults)
      .field("adversary", info_.adversary)
      .field("seed", static_cast<unsigned long long>(info_.seed))
      .field("iterations", info_.iterations)
      .field("round_budget", info_.round_budget);
  json.end_object();
  int violations = 0;
  for (const AuditBound& bound : bounds_) {
    if (!bound.ok) violations += 1;
  }
  json.key("verdict").begin_object();
  json.field("complete", complete_)
      .field("all_ok", all_ok())
      .field("bounds_checked", static_cast<int>(bounds_.size()))
      .field("violations", violations);
  json.end_object();
  json.key("bounds").begin_array();
  for (const AuditBound& bound : bounds_) {
    json.begin_object();
    json.field("bound", bound.bound)
        .field("formula", bound.formula)
        .field("direction", bound.upper ? "upper" : "lower")
        .field("limit", bound.limit)
        .field("observed", bound.observed)
        .field("ok", bound.ok);
    if (!bound.detail.empty()) json.field("detail", bound.detail);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << '\n';
  os.flush();
}

}  // namespace byzrename::obs
