#include "aa/byzantine_aa.h"

#include <stdexcept>

#include "core/rank_approx.h"

namespace byzrename::aa {

using numeric::BigInt;
using numeric::FixedConvert;
using numeric::limb_t;
using numeric::Rational;

ByzantineAAProcess::ByzantineAAProcess(sim::SystemParams params, Rational initial, int rounds,
                                       core::RankKernel kernel)
    : params_(params),
      value_(std::move(initial)),
      rounds_left_(rounds),
      kernel_(kernel),
      spec_(kernel == core::RankKernel::kExact
                ? numeric::FixedSpec{}
                : numeric::derive_fixed_spec(params.n, params.t, rounds)) {
  if (params.n <= 3 * params.t) {
    throw std::invalid_argument("ByzantineAAProcess: requires N > 3t");
  }
  if (rounds < 0) throw std::invalid_argument("ByzantineAAProcess: negative round count");
  if (!spec_.ok) kernel_ = core::RankKernel::kExact;
  link_stamp_.assign(static_cast<std::size_t>(params.n), 0);
}

void ByzantineAAProcess::on_send(sim::Round, sim::Outbox& out) {
  if (done()) return;
  out.broadcast(sim::AAValueMsg{value_});
}

void ByzantineAAProcess::on_receive(sim::Round, const sim::Inbox& inbox) {
  if (done()) return;
  const int n = params_.n;
  const int t = params_.t;

  // One value per link; spamming links are provably faulty and their
  // extra messages are discarded, as is any value whose encoding exceeds
  // the wire budget (Byzantine denominator inflation). First value per
  // link wins, exactly like the historical per-link map.
  ++round_serial_;
  admitted_.clear();
  for (const sim::Delivery& d : inbox) {
    const auto* msg = std::get_if<sim::AAValueMsg>(&*d.payload);
    if (msg == nullptr) continue;
    if (msg->value.encoded_bits() > kMaxValueBits) continue;
    auto& stamp = link_stamp_[static_cast<std::size_t>(d.link)];
    if (stamp == round_serial_) continue;
    stamp = round_serial_;
    admitted_.push_back(&msg->value);
  }
  // More than N entries cannot happen: links are distinct and there are N.

  // Fixed lane: every admitted value (and the pad value) on the 1/S
  // grid within width — the steady state of integer-seeded AA.
  bool have_fixed = false;
  Rational fixed_value;
  if (kernel_ != core::RankKernel::kExact) {
    ballot_kernel_.prepare(spec_, n);
    const bool all_on_grid = ballot_kernel_.fill([&](auto set) {
      limb_t value[numeric::kFixedRankLimbs];
      int count = 0;
      for (const Rational* v : admitted_) {
        if (numeric::rational_to_fixed(*v, spec_, value) != FixedConvert::kOk) return false;
        set(count++, value);
      }
      if (count < n && numeric::rational_to_fixed(value_, spec_, value) != FixedConvert::kOk) {
        return false;
      }
      while (count < n) set(count++, value);
      return true;
    });
    if (all_on_grid) {
      limb_t result[numeric::kFixedRankLimbs];
      BigInt sum;
      if (ballot_kernel_.average(result, sum) == core::FixedBallotKernel::Outcome::kOk) {
        fixed_value = numeric::fixed_to_rational(result, spec_.width, spec_.scale_big);
      } else {
        fixed_value = Rational(sum, BigInt(spec_.select_count) * spec_.scale_big);
      }
      have_fixed = true;
    }
  }

  if (!have_fixed || kernel_ == core::RankKernel::kCheck) {
    exact_ballot_.clear();
    for (const Rational* v : admitted_) exact_ballot_.push_back(*v);
    while (static_cast<int>(exact_ballot_.size()) < n) exact_ballot_.push_back(value_);
    Rational exact_value = core::trimmed_mean(exact_ballot_, t);
    if (have_fixed && fixed_value != exact_value) {
      throw std::logic_error("ByzantineAAProcess: fixed kernel diverged from the exact oracle");
    }
    value_ = std::move(exact_value);
  } else {
    value_ = std::move(fixed_value);
  }

  --rounds_left_;
}

}  // namespace byzrename::aa
