#include "core/id_selection.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "sim/rng.h"

namespace byzrename::core {

using sim::Delivery;
using sim::EchoMsg;
using sim::Id;
using sim::IdMsg;
using sim::Inbox;
using sim::LinkIndex;
using sim::Outbox;
using sim::ReadyMsg;
using sim::Round;

namespace {

/// Calls fn(link, id) for every @p Msg in @p inbox, in link order. An
/// inbox from sim::Network is already link-ordered and is walked in
/// place; any other is first gathered and stable-ordered by link.
template <typename Msg, typename Fn>
void for_each_by_link(const Inbox& inbox, Fn&& fn) {
  const bool link_ordered =
      std::is_sorted(inbox.begin(), inbox.end(),
                     [](const Delivery& a, const Delivery& b) { return a.link < b.link; });
  if (link_ordered) {
    for (const Delivery& d : inbox) {
      if (const auto* msg = std::get_if<Msg>(&*d.payload)) fn(d.link, msg->id);
    }
    return;
  }
  std::vector<std::pair<LinkIndex, Id>> ordered;
  for (const Delivery& d : inbox) {
    if (const auto* msg = std::get_if<Msg>(&*d.payload)) ordered.emplace_back(d.link, msg->id);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [link, id] : ordered) fn(link, id);
}

}  // namespace

IdSelection::IdSelection(sim::SystemParams params, Id my_id) : params_(params), my_id_(my_id) {}

void IdSelection::on_send(Round step, Outbox& out) {
  switch (step) {
    case 1:
      out.broadcast(IdMsg{my_id_});
      break;
    case 2:
      for (const Id id : ids_) out.broadcast(EchoMsg{id});
      break;
    case 3:
      ready_sent_ = ids_;
      [[fallthrough]];
    case 4:
      for (const Id id : ids_) out.broadcast(ReadyMsg{id});
      break;
    default:
      throw std::logic_error("IdSelection::on_send: step out of range");
  }
}

void IdSelection::reset_tally() {
  slots_.clear();
  step3_counted_.clear();
  if (table_.empty()) {
    // Sized once per process for the usual n + t ids at load <= 1/2;
    // an id flood grows it in slot_of.
    const auto expected = static_cast<std::size_t>(params_.n + params_.t);
    slots_.reserve(expected);
    table_.assign(std::bit_ceil(std::max<std::size_t>(2 * expected, 16)), kNoSlot);
  } else {
    std::fill(table_.begin(), table_.end(), kNoSlot);
  }
}

std::uint32_t IdSelection::slot_of(Id id) {
  std::size_t mask = table_.size() - 1;
  std::size_t i = sim::splitmix64(static_cast<std::uint64_t>(id)) & mask;
  for (; table_[i] != kNoSlot; i = (i + 1) & mask) {
    if (slots_[table_[i]].id == id) return table_[i];
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back({id, 0, -1});
  if (2 * slots_.size() <= table_.size()) {
    table_[i] = slot;
    return slot;
  }
  // Past load 1/2: double the table and re-place every slot.
  table_.assign(2 * table_.size(), kNoSlot);
  mask = table_.size() - 1;
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    std::size_t j = sim::splitmix64(static_cast<std::uint64_t>(slots_[s].id)) & mask;
    while (table_[j] != kNoSlot) j = (j + 1) & mask;
    table_[j] = s;
  }
  return slot;
}

std::uint32_t IdSelection::count(LinkIndex link, Id id) {
  const std::uint32_t s = slot_of(id);
  Slot& slot = slots_[s];
  if (slot.last_link == link) return kNoSlot;
  slot.last_link = link;
  slot.count += 1;
  return s;
}

void IdSelection::on_receive(Round step, const Inbox& inbox) {
  const int quorum = params_.n - params_.t;           // N - t
  const int weak_quorum = params_.n - 2 * params_.t;  // N - 2t

  switch (step) {
    case 1: {
      // One id per link: a link that announces several "own" ids is
      // provably faulty and only its first announcement counts. This is
      // what caps Byzantine step-1 injections at t*(N-t) id slots
      // (Lemma A.1's counting argument).
      std::vector<unsigned char> seen_links(static_cast<std::size_t>(params_.n), 0);
      ids_.clear();
      for (const Delivery& d : inbox) {
        const auto* msg = std::get_if<IdMsg>(&*d.payload);
        if (msg == nullptr) continue;
        auto& seen = seen_links[static_cast<std::size_t>(d.link)];
        if (seen != 0) continue;
        seen = 1;
        ids_.push_back(msg->id);
      }
      std::sort(ids_.begin(), ids_.end());
      ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
      break;
    }
    case 2: {
      reset_tally();
      for_each_by_link<EchoMsg>(inbox, [&](LinkIndex link, Id id) { count(link, id); });
      ids_.clear();
      for (const Slot& slot : slots_) {
        if (slot.count >= quorum) ids_.push_back(slot.id);
      }
      std::sort(ids_.begin(), ids_.end());
      break;
    }
    case 3: {
      reset_tally();
      step3_counted_.reserve(inbox.size());
      for_each_by_link<ReadyMsg>(inbox, [&](LinkIndex link, Id id) {
        const std::uint32_t s = count(link, id);
        if (s != kNoSlot) step3_counted_.push_back({link, s});
      });
      ids_.clear();
      for (const Slot& slot : slots_) {
        if (slot.count >= quorum) timely_.insert(slot.id);
        // Amplification: a weak quorum of Readys means at least one
        // correct process observed an Echo quorum, so join in step 4.
        if (slot.count >= weak_quorum &&
            !std::binary_search(ready_sent_.begin(), ready_sent_.end(), slot.id)) {
          ids_.push_back(slot.id);
        }
      }
      std::sort(ids_.begin(), ids_.end());
      break;
    }
    case 4: {
      // Ready counts accumulate over steps 3 and 4 (paper, lines 24-25).
      // A process that missed step 3 (crashed or restarted into step 4)
      // counts step 4's Readys alone, never a leftover Echo tally. Only
      // step 3 fills step3_counted_ and steps 2 and 4 empty it, so it is
      // non-empty exactly when the tally holds step 3's Readys.
      if (step3_counted_.empty()) reset_tally();
      // Entering link L's run, set last_link = L on every slot L counted
      // in step 3, so a repeated step-4 Ready on L does not count again.
      // A stale last_link from step 3 is harmless: a slot's last step-3
      // link is in step3_counted_, so its run re-marks it anyway.
      std::size_t next = 0;
      LinkIndex run = -1;
      for_each_by_link<ReadyMsg>(inbox, [&](LinkIndex link, Id id) {
        if (link != run) {
          run = link;
          while (next < step3_counted_.size() && step3_counted_[next].link < link) ++next;
          for (; next < step3_counted_.size() && step3_counted_[next].link == link; ++next) {
            slots_[step3_counted_[next].slot].last_link = link;
          }
        }
        count(link, id);
      });
      for (const Slot& slot : slots_) {
        if (slot.count >= quorum) accepted_.insert(slot.id);
      }
      // The selection phase is over; release the tally so long voting
      // phases (and N=1024 instances) do not pin it.
      slots_ = std::vector<Slot>();
      table_ = std::vector<std::uint32_t>();
      step3_counted_ = std::vector<Counted>();
      break;
    }
    default:
      throw std::logic_error("IdSelection::on_receive: step out of range");
  }
}

}  // namespace byzrename::core
