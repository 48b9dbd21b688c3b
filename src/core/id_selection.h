#ifndef BYZRENAME_CORE_ID_SELECTION_H
#define BYZRENAME_CORE_ID_SELECTION_H

#include <cstdint>
#include <set>
#include <vector>

#include "sim/payload.h"
#include "sim/process.h"
#include "sim/types.h"

namespace byzrename::core {

/// The 4-step id selection phase of Alg. 1 (steps 1-4).
///
/// Bounds the number of identifiers Byzantine processes can smuggle into
/// the computation without solving consensus on the id set. After step 4
/// the phase guarantees (Lemmas IV.1-IV.3 of the paper):
///   - every correct id is in the `timely` set of every correct process;
///   - timely_p (of any correct p) is a subset of accepted_q (of any
///     correct q);
///   - |accepted| <= N + floor(t^2 / (N - 2t)) <= N + t - 1 for N > 3t.
///
/// The message pattern is Bracha-style Echo/Ready, cut to exactly four
/// steps, with all counting done over *distinct link labels* because the
/// receiver never knows sender identities. Each step tallies its inbox in
/// one pass, in link order: the network hands every inbox over sorted by
/// link (sim::Inbox), so one link's deliveries are contiguous and a
/// delivery is a new distinct link for its id exactly when that link
/// differs from the last one counted for the id. Ids map to their
/// counters through a small open-addressing table, so each delivery costs
/// one probe. An inbox that is not in link order (hand-built ones in
/// tests) is first stable-ordered by link, with the same counts.
class IdSelection {
 public:
  IdSelection(sim::SystemParams params, sim::Id my_id);

  /// Emits this step's broadcasts; @p step must be 1..4.
  void on_send(sim::Round step, sim::Outbox& out);

  /// Consumes this step's inbox; @p step must be 1..4.
  void on_receive(sim::Round step, const sim::Inbox& inbox);

  /// Ids for which N-t Ready messages arrived by step 3 (the paper's
  /// `timely` set). Valid after step 3 (extended in step 4 only via
  /// accepted); stable after step 4.
  [[nodiscard]] const std::set<sim::Id>& timely() const noexcept { return timely_; }

  /// Ids accepted at the end of step 4 (the paper's `accepted` set).
  [[nodiscard]] const std::set<sim::Id>& accepted() const noexcept { return accepted_; }

  [[nodiscard]] sim::Id my_id() const noexcept { return my_id_; }

 private:
  /// One id's tally in the current pass: distinct links counted so far
  /// and the last link that counted.
  struct Slot {
    sim::Id id;
    int count;
    sim::LinkIndex last_link;
  };
  /// A (link, slot) pair the step-3 Ready pass counted.
  struct Counted {
    sim::LinkIndex link;
    std::uint32_t slot;
  };

  /// Empties the tally (slots, table, step-3 pairs) for a new pass.
  void reset_tally();
  /// Index of @p id's slot, inserting a zero-count slot if it is new.
  std::uint32_t slot_of(sim::Id id);
  /// Counts one delivery of a link-ordered pass; returns the slot index
  /// if it was the first of its (id, link) pair, or kNoSlot otherwise.
  std::uint32_t count(sim::LinkIndex link, sim::Id id);

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  sim::SystemParams params_;
  sim::Id my_id_;

  /// Working id set carried between steps (the paper's `Ids` variable),
  /// sorted ascending so broadcasts go out in id order.
  std::vector<sim::Id> ids_;
  /// Ids this process broadcast Ready for in step 3 (sorted); the step-3
  /// amplification rule skips them.
  std::vector<sim::Id> ready_sent_;

  /// The current pass's tally: slots in first-seen order, and a
  /// power-of-two open-addressing table of slot indices (kNoSlot =
  /// empty) hashed by sim::splitmix64, since ids are adversary-chosen.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> table_;
  /// Distinct (link, slot) pairs of the step-3 Ready pass, in link order.
  /// Step 4 counts cumulatively on top of step 3 (paper, lines 24-25):
  /// at each step-4 link run it marks the slots that link already
  /// counted. Empty unless the tally holds step 3's Readys.
  std::vector<Counted> step3_counted_;

  std::set<sim::Id> timely_;
  std::set<sim::Id> accepted_;
};

}  // namespace byzrename::core

#endif  // BYZRENAME_CORE_ID_SELECTION_H
