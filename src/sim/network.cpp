#include "sim/network.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "sim/codec.h"
#include "trace/event_log.h"

namespace byzrename::sim {

void Outbox::send_to(ProcessIndex dest, PayloadRef payload) {
  if (!targeted_allowed_) {
    throw std::logic_error("Outbox::send_to: correct processes may only broadcast");
  }
  entries_.push_back({dest, std::move(payload)});
}

Network::Network(std::vector<std::unique_ptr<ProcessBehavior>> behaviors,
                 std::vector<bool> byzantine, Rng rng, bool scramble_links)
    : behaviors_(std::move(behaviors)), byzantine_(std::move(byzantine)) {
  if (behaviors_.empty()) throw std::invalid_argument("Network: no processes");
  if (byzantine_.size() != behaviors_.size()) {
    throw std::invalid_argument("Network: byzantine flag count mismatch");
  }
  const std::size_t n = behaviors_.size();
  done_.assign(n, false);
  decided_round_.assign(n, 0);
  link_of_sender_.resize(n);
  for (std::size_t receiver = 0; receiver < n; ++receiver) {
    std::vector<LinkIndex>& links = link_of_sender_[receiver];
    links.resize(n);
    std::iota(links.begin(), links.end(), 0);
    // Scramble so a link label reveals nothing about the peer behind it.
    if (scramble_links) std::shuffle(links.begin(), links.end(), rng.engine());
  }
  inboxes_.resize(n);
  link_offsets_.resize(n + 1);
  restarted_.assign(n, false);
  round_offset_.assign(n, 0);
}

void Network::run_round(Round round) {
  const std::size_t n = behaviors_.size();
  // Reuse the per-receiver buffers: clear drops last round's payload refs
  // but keeps each vector's capacity, so steady-state rounds perform no
  // inbox (re)allocation at all.
  for (Inbox& inbox : inboxes_) inbox.clear();
  RoundMetrics round_metrics;

  // Transient restarts (Lenzen–Rybicki): at the START of the event's
  // round the process is handed a fresh behavior, forgets any decision,
  // and loses every in-flight delayed delivery addressed to it. Its
  // local round counter resets to 1 (kReset) or to a hash-derived wrong
  // value in [1, round] (kScramble). Processed before the delayed flush
  // so deliveries due this very round are lost too.
  if (fault_injector_ != nullptr && behavior_factory_) {
    const std::vector<RestartEvent>& restarts = fault_injector_->plan().restarts;
    for (std::size_t e = 0; e < restarts.size(); ++e) {
      const RestartEvent& event = restarts[e];
      const auto pid = static_cast<std::size_t>(event.process);
      if (event.round != round || pid >= n || byzantine_[pid]) continue;
      behaviors_[pid] = behavior_factory_(event.process);
      restarted_[pid] = true;
      done_[pid] = false;
      decided_round_[pid] = 0;
      int skew = 0;
      if (event.state == RestartState::kScramble) {
        skew = fault_injector_->restart_skew(e, event);
      }
      round_offset_[pid] = 1 - static_cast<int>(round) + skew;
      for (DelayedBatch& batch : delayed_) {
        const std::size_t lost = std::erase_if(
            batch.entries, [&](const auto& entry) { return entry.first == pid; });
        round_metrics.injected_drops += lost;
      }
      round_metrics.injected_restarts += 1;
      if (event_log_ != nullptr) {
        std::string note = "restart: reset";
        if (event.state == RestartState::kScramble) {
          note = "restart: scramble +" + std::to_string(skew);
        }
        event_log_->record({round, trace::Event::Kind::kFault, event.process, std::nullopt,
                            -1, false, std::move(note)});
      }
    }
  }

  // Deliveries a delay rule postponed to this round. Their message/bit
  // cost was charged in the round they were sent; a receiver that has
  // crashed in the meantime loses them for good.
  for (auto it = delayed_.begin(); it != delayed_.end(); ++it) {
    if (it->due != round) continue;
    for (auto& [receiver, delivery] : it->entries) {
      if (fault_injector_ != nullptr &&
          fault_injector_->crashed(static_cast<ProcessIndex>(receiver), round)) {
        round_metrics.injected_drops += 1;
        if (event_log_ != nullptr) {
          event_log_->record({round, trace::Event::Kind::kFault,
                              static_cast<ProcessIndex>(receiver), std::nullopt,
                              delivery.link, byzantine_[receiver],
                              "crash: delayed delivery lost"});
        }
        continue;
      }
      inboxes_[receiver].push_back(std::move(delivery));
    }
    delayed_.erase(it);
    break;  // at most one batch per round by construction
  }

  for (std::size_t sender = 0; sender < n; ++sender) {
    // A crashed process takes no send action at all; on recovery it
    // resumes the protocol from its pre-crash state.
    if (fault_injector_ != nullptr &&
        fault_injector_->crashed(static_cast<ProcessIndex>(sender), round)) {
      if (event_log_ != nullptr) {
        event_log_->record({round, trace::Event::Kind::kFault,
                            static_cast<ProcessIndex>(sender), std::nullopt, -1,
                            byzantine_[sender], "crash: no send"});
      }
      continue;
    }
    Outbox out(byzantine_[sender]);
    // A restarted process acts on its own (skewed) view of the round.
    behaviors_[sender]->on_send(round + round_offset_[sender], out);
    for (const Outbox::Entry& entry : out.entries()) {
      if (event_log_ != nullptr) {
        event_log_->record({round, trace::Event::Kind::kSend,
                            static_cast<ProcessIndex>(sender), entry.dest, -1,
                            byzantine_[sender], describe(*entry.payload)});
      }
      // Charge the exact size the binary codec produces, so the paper's
      // bit-complexity bounds are checked against a real encoding. The
      // size is memoized per payload object: a face shared by many
      // targeted entries is sized once.
      const std::size_t payload_bits = entry.payload.encoded_bits();
      if (entry.dest.has_value() && byzantine_[sender]) round_metrics.equivocating_sends += 1;
      auto deliver = [&](std::size_t receiver) {
        FaultInjector::Fate fate;
        if (fault_injector_ != nullptr) {
          fate = fault_injector_->fate(round, static_cast<ProcessIndex>(sender),
                                       static_cast<ProcessIndex>(receiver));
        }
        if (fate.drop) {
          round_metrics.injected_drops += 1;
          if (event_log_ != nullptr) {
            event_log_->record({round, trace::Event::Kind::kFault,
                                static_cast<ProcessIndex>(receiver), std::nullopt,
                                link_of_sender_[receiver][sender], byzantine_[receiver],
                                "drop"});
          }
          return;
        }
        round_metrics.messages += 1;
        round_metrics.bits += payload_bits;
        round_metrics.max_message_bits = std::max(round_metrics.max_message_bits, payload_bits);
        if (!byzantine_[sender]) {
          round_metrics.correct_messages += 1;
          round_metrics.correct_bits += payload_bits;
          round_metrics.max_correct_message_bits =
              std::max(round_metrics.max_correct_message_bits, payload_bits);
        }
        // Sharing, not copying: the delivery aliases the sender's single
        // payload object behind a refcount bump.
        const Delivery delivery{link_of_sender_[receiver][sender], entry.payload};
        if (event_log_ != nullptr && (fate.delay > 0 || fate.copies > 1)) {
          std::string note;
          if (fate.copies > 1) note = "dup x" + std::to_string(fate.copies);
          if (fate.delay > 0) {
            if (!note.empty()) note += ", ";
            note += "delay +" + std::to_string(fate.delay);
          }
          event_log_->record({round, trace::Event::Kind::kFault,
                              static_cast<ProcessIndex>(receiver), std::nullopt,
                              delivery.link, byzantine_[receiver], std::move(note)});
        }
        if (fate.delay > 0) {
          round_metrics.injected_delays += 1;
          std::vector<std::pair<std::size_t, Delivery>>* batch = nullptr;
          for (DelayedBatch& candidate : delayed_) {
            if (candidate.due == round + fate.delay) {
              batch = &candidate.entries;
              break;
            }
          }
          if (batch == nullptr) {
            delayed_.push_back({round + fate.delay, {}});
            batch = &delayed_.back().entries;
          }
          // A delivery that is both duplicated and delayed keeps its
          // extra copies: they travel with the delayed message.
          batch->emplace_back(receiver, delivery);
          for (int copy = 1; copy < fate.copies; ++copy) {
            round_metrics.injected_duplicates += 1;
            batch->emplace_back(receiver, delivery);
          }
          return;
        }
        inboxes_[receiver].push_back(delivery);
        for (int copy = 1; copy < fate.copies; ++copy) {
          round_metrics.injected_duplicates += 1;
          inboxes_[receiver].push_back(delivery);
        }
      };
      if (entry.dest.has_value()) {
        const auto dest = static_cast<std::size_t>(*entry.dest);
        if (dest >= n) throw std::out_of_range("Network: send_to destination out of range");
        deliver(dest);
      } else if (fault_injector_ == nullptr && event_log_ == nullptr) {
        // Fault-free, untraced broadcast: identical bookkeeping to n
        // deliver() calls, folded out of the fan-out loop. The O(N^2)
        // echo steps (and every voting round) take this path in
        // benchmarks and clean campaigns.
        round_metrics.messages += n;
        round_metrics.bits += n * payload_bits;
        round_metrics.max_message_bits = std::max(round_metrics.max_message_bits, payload_bits);
        if (!byzantine_[sender]) {
          round_metrics.correct_messages += n;
          round_metrics.correct_bits += n * payload_bits;
          round_metrics.max_correct_message_bits =
              std::max(round_metrics.max_correct_message_bits, payload_bits);
        }
        for (std::size_t receiver = 0; receiver < n; ++receiver) {
          inboxes_[receiver].push_back({link_of_sender_[receiver][sender], entry.payload});
        }
      } else {
        for (std::size_t receiver = 0; receiver < n; ++receiver) deliver(receiver);
      }
    }
  }

  // Impersonation (Okun): the external adversary appends up to k forged
  // deliveries per correct receiver, each arriving on the exact link the
  // spoofed sender's real messages use. Forgeries are not charged to
  // messages/bits — the impersonator is outside the system, and those
  // counters feed the paper's complexity budgets.
  if (fault_injector_ != nullptr && !fault_injector_->plan().forges.empty()) {
    const std::vector<ForgeRule>& forges = fault_injector_->plan().forges;
    for (std::size_t receiver = 0; receiver < n; ++receiver) {
      if (byzantine_[receiver]) continue;
      if (fault_injector_->crashed(static_cast<ProcessIndex>(receiver), round)) continue;
      forged_scratch_.clear();
      fault_injector_->forged(round, static_cast<ProcessIndex>(receiver),
                              static_cast<int>(n), forged_scratch_);
      for (const FaultInjector::ForgedMessage& forged : forged_scratch_) {
        PayloadRef payload;
        if (forgery_source_ != nullptr) {
          payload = forgery_source_->forge(round, forged.spoofed_sender,
                                           static_cast<ProcessIndex>(receiver),
                                           forges[forged.rule].strategy, forged.entropy);
        } else {
          // Standalone-sim fallback: a phantom process announcing a
          // hash-derived id far outside any real id range.
          payload = IdMsg{static_cast<Id>(forged.entropy >> 32)};
        }
        if (!payload) continue;  // strategy declined the slot
        const std::size_t spoofed = static_cast<std::size_t>(forged.spoofed_sender);
        inboxes_[receiver].push_back({link_of_sender_[receiver][spoofed], payload});
        round_metrics.injected_forgeries += 1;
        if (event_log_ != nullptr) {
          event_log_->record({round, trace::Event::Kind::kFault,
                              static_cast<ProcessIndex>(receiver), std::nullopt,
                              link_of_sender_[receiver][spoofed], byzantine_[receiver],
                              "forge: as p" + std::to_string(forged.spoofed_sender) + " " +
                                  describe(*payload)});
        }
      }
    }
  }
  metrics_.add_round(round_metrics);

  for (std::size_t receiver = 0; receiver < n; ++receiver) {
    // A crashed process takes no receive action either; its (empty)
    // inbox for this round is gone for good.
    if (fault_injector_ != nullptr &&
        fault_injector_->crashed(static_cast<ProcessIndex>(receiver), round)) {
      if (event_log_ != nullptr) {
        event_log_->record({round, trace::Event::Kind::kFault,
                            static_cast<ProcessIndex>(receiver), std::nullopt, -1,
                            byzantine_[receiver], "crash: no receive"});
      }
      continue;
    }
    Inbox& inbox = inboxes_[receiver];
    // Stable order by link label: receiver-local, carries no sender info.
    // Link labels live in [0, N), so a counting sort places each delivery
    // in O(1) — O(N + M) total versus stable_sort's O(M log M) compares —
    // and the scratch buffer is pooled across rounds like the inboxes.
    if (inbox.size() > 1) {
      std::fill(link_offsets_.begin(), link_offsets_.end(), 0u);
      for (const Delivery& d : inbox) {
        link_offsets_[static_cast<std::size_t>(d.link) + 1] += 1;
      }
      for (std::size_t l = 1; l <= n; ++l) link_offsets_[l] += link_offsets_[l - 1];
      sort_scratch_.resize(inbox.size());
      for (Delivery& d : inbox) {
        sort_scratch_[link_offsets_[static_cast<std::size_t>(d.link)]++] = std::move(d);
      }
      inbox.swap(sort_scratch_);
    }
    if (event_log_ != nullptr) {
      for (const Delivery& d : inbox) {
        event_log_->record({round, trace::Event::Kind::kDeliver,
                            static_cast<ProcessIndex>(receiver), std::nullopt, d.link,
                            byzantine_[receiver], describe(*d.payload)});
      }
    }
    behaviors_[receiver]->on_receive(round + round_offset_[receiver], inbox);
  }

  // Decision transitions: always tracked (the checker's provenance needs
  // decide rounds) and additionally fed to the trace (the trace-event
  // exporter's decide slices) when a log is attached; byzantine behaviors
  // have no meaningful done() state.
  for (std::size_t i = 0; i < n; ++i) {
    if (byzantine_[i] || done_[i] || !behaviors_[i]->done()) continue;
    done_[i] = true;
    decided_round_[i] = round;
    if (event_log_ != nullptr) {
      const std::optional<Name> name = behaviors_[i]->decision();
      event_log_->record({round, trace::Event::Kind::kDecide, static_cast<ProcessIndex>(i),
                          std::nullopt, -1, false,
                          name.has_value() ? "name=" + std::to_string(*name) : "(no name)"});
    }
  }
}

bool Network::all_correct_done() const {
  for (std::size_t i = 0; i < behaviors_.size(); ++i) {
    if (!byzantine_[i] && !behaviors_[i]->done()) return false;
  }
  return true;
}

}  // namespace byzrename::sim
