#include "sim/network.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
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
  down_.assign(n, 0);
  restarted_.assign(n, false);
  round_offset_.assign(n, 0);
}

template <typename Note>
void Network::record_fault(RoundMetrics& metrics, const RoundMetrics& counted, Round round,
                           std::size_t actor, LinkIndex link, Note&& note) {
  metrics.injected_drops += counted.injected_drops;
  metrics.injected_duplicates += counted.injected_duplicates;
  metrics.injected_delays += counted.injected_delays;
  metrics.injected_forgeries += counted.injected_forgeries;
  metrics.injected_restarts += counted.injected_restarts;
  if (event_log_ != nullptr) {
    event_log_->record({round, trace::Event::Kind::kFault, static_cast<ProcessIndex>(actor),
                        std::nullopt, link, byzantine_[actor], note()});
  }
}

std::vector<std::pair<std::size_t, Delivery>>& Network::delayed_batch(Round due) {
  for (DelayedBatch& batch : delayed_) {
    if (batch.due == due) return batch.entries;
  }
  delayed_.push_back({due, {}});
  return delayed_.back().entries;
}

void Network::run_round(Round round) {
  const std::size_t n = behaviors_.size();
  const FaultInjector* injector = fault_injector_;
  // Reuse the per-receiver buffers: clear drops last round's payload refs
  // but keeps each vector's capacity, so steady-state rounds perform no
  // inbox (re)allocation at all.
  for (Inbox& inbox : inboxes_) inbox.clear();
  RoundMetrics round_metrics;
  // Crash status, read once and shared by every step of the round: a
  // crashed process neither sends nor receives, loses the delayed
  // deliveries due to it, and is spared forgeries.
  for (std::size_t i = 0; i < n; ++i) {
    down_[i] = injector != nullptr && injector->crashed(static_cast<ProcessIndex>(i), round);
  }

  // Transient restarts (Lenzen–Rybicki): at the START of the event's
  // round the process is handed a fresh behavior, forgets any decision,
  // and loses every in-flight delayed delivery addressed to it. Its
  // local round counter resets to 1 (kReset) or to a hash-derived wrong
  // value in [1, round] (kScramble). Processed before the delayed flush
  // so deliveries due this very round are lost too.
  if (injector != nullptr && behavior_factory_) {
    const std::vector<RestartEvent>& restarts = injector->plan().restarts;
    for (std::size_t e = 0; e < restarts.size(); ++e) {
      const RestartEvent& event = restarts[e];
      const auto pid = static_cast<std::size_t>(event.process);
      if (event.round != round || pid >= n || byzantine_[pid]) continue;
      behaviors_[pid] = behavior_factory_(event.process);
      restarted_[pid] = true;
      done_[pid] = false;
      decided_round_[pid] = 0;
      const bool scramble = event.state == RestartState::kScramble;
      const int skew = scramble ? injector->restart_skew(e, event) : 0;
      round_offset_[pid] = 1 - static_cast<int>(round) + skew;
      record_fault(round_metrics, {.injected_restarts = 1}, round, pid, -1, [&] {
        return scramble ? "restart: scramble +" + std::to_string(skew)
                        : std::string("restart: reset");
      });
      for (DelayedBatch& batch : delayed_) {
        for (const auto& [receiver, delivery] : batch.entries) {
          if (receiver != pid) continue;
          record_fault(round_metrics, {.injected_drops = 1}, round, pid, delivery.link,
                       [] { return "restart: delayed delivery lost"; });
        }
        std::erase_if(batch.entries, [pid](const auto& entry) { return entry.first == pid; });
      }
    }
  }

  // Deliveries a delay rule postponed to this round. Their message/bit
  // cost was charged in the round they were sent; a receiver that has
  // crashed in the meantime loses them for good.
  for (auto it = delayed_.begin(); it != delayed_.end(); ++it) {
    if (it->due != round) continue;
    for (auto& [receiver, delivery] : it->entries) {
      if (down_[receiver] != 0) {
        record_fault(round_metrics, {.injected_drops = 1}, round, receiver, delivery.link,
                     [] { return "crash: delayed delivery lost"; });
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
    if (down_[sender] != 0) {
      record_fault(round_metrics, {}, round, sender, -1, [] { return "crash: no send"; });
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
      // A broadcast fans out to every receiver, a targeted send to one.
      std::size_t first = 0;
      std::size_t last = n;
      if (entry.dest.has_value()) {
        first = static_cast<std::size_t>(*entry.dest);
        if (first >= n) throw std::out_of_range("Network: send_to destination out of range");
        last = first + 1;
        if (byzantine_[sender]) round_metrics.equivocating_sends += 1;
      }
      std::size_t reached = 0;
      for (std::size_t receiver = first; receiver < last; ++receiver) {
        const LinkIndex link = link_of_sender_[receiver][sender];
        // Without an injector every delivery keeps the default fate.
        FaultInjector::Fate fate;
        if (injector != nullptr) {
          fate = injector->fate(round, static_cast<ProcessIndex>(sender),
                                static_cast<ProcessIndex>(receiver));
          if (fate.drop) {
            record_fault(round_metrics, {.injected_drops = 1}, round, receiver, link,
                         [] { return "drop"; });
            continue;
          }
          if (fate.copies > 1 || fate.delay > 0) {
            const RoundMetrics counted{
                .injected_duplicates = static_cast<std::size_t>(fate.copies - 1),
                .injected_delays = fate.delay > 0 ? 1u : 0u};
            record_fault(round_metrics, counted, round, receiver, link, [&fate] {
              std::string note;
              if (fate.copies > 1) note = "dup x" + std::to_string(fate.copies);
              if (fate.delay > 0) {
                if (!note.empty()) note += ", ";
                note += "delay +" + std::to_string(fate.delay);
              }
              return note;
            });
          }
        }
        reached += 1;
        // Sharing, not copying: the delivery aliases the sender's single
        // payload object behind one refcount bump, and its last copy is
        // moved into place. Extra copies of a duplicated delivery travel
        // with it, delayed or not.
        Delivery delivery{link, entry.payload};
        if (fate.delay > 0) {
          auto& batch = delayed_batch(round + fate.delay);
          for (int copy = 1; copy < fate.copies; ++copy) batch.emplace_back(receiver, delivery);
          batch.emplace_back(receiver, std::move(delivery));
        } else {
          Inbox& inbox = inboxes_[receiver];
          for (int copy = 1; copy < fate.copies; ++copy) inbox.push_back(delivery);
          inbox.push_back(std::move(delivery));
        }
      }
      if (reached == 0) continue;
      // Charged once per entry from the count of receivers reached, at
      // the exact size the binary codec produces, so the paper's
      // bit-complexity bounds are checked against a real encoding. The
      // size is memoized per payload object: a face shared by many
      // targeted entries is sized once.
      const std::size_t payload_bits = entry.payload.encoded_bits();
      round_metrics.messages += reached;
      round_metrics.bits += reached * payload_bits;
      round_metrics.max_message_bits = std::max(round_metrics.max_message_bits, payload_bits);
      if (!byzantine_[sender]) {
        round_metrics.correct_messages += reached;
        round_metrics.correct_bits += reached * payload_bits;
        round_metrics.max_correct_message_bits =
            std::max(round_metrics.max_correct_message_bits, payload_bits);
      }
    }
  }

  // Impersonation (Okun): the external adversary appends up to k forged
  // deliveries per correct receiver, each arriving on the exact link the
  // spoofed sender's real messages use. Forgeries are not charged to
  // messages/bits — the impersonator is outside the system, and those
  // counters feed the paper's complexity budgets.
  if (injector != nullptr && !injector->plan().forges.empty()) {
    const std::vector<ForgeRule>& forges = injector->plan().forges;
    for (std::size_t receiver = 0; receiver < n; ++receiver) {
      if (byzantine_[receiver] || down_[receiver] != 0) continue;
      forged_scratch_.clear();
      injector->forged(round, static_cast<ProcessIndex>(receiver), static_cast<int>(n),
                       forged_scratch_);
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
        const LinkIndex link =
            link_of_sender_[receiver][static_cast<std::size_t>(forged.spoofed_sender)];
        inboxes_[receiver].push_back({link, payload});
        record_fault(round_metrics, {.injected_forgeries = 1}, round, receiver, link, [&] {
          return "forge: as p" + std::to_string(forged.spoofed_sender) + " " +
                 describe(*payload);
        });
      }
    }
  }

  for (std::size_t receiver = 0; receiver < n; ++receiver) {
    // A crashed process takes no receive action either; its (empty)
    // inbox for this round is gone for good.
    if (down_[receiver] != 0) {
      record_fault(round_metrics, {}, round, receiver, -1, [] { return "crash: no receive"; });
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
  metrics_.add_round(round_metrics);

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
