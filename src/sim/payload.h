#ifndef BYZRENAME_SIM_PAYLOAD_H
#define BYZRENAME_SIM_PAYLOAD_H

#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "numeric/fixed_rank.h"
#include "numeric/rational.h"
#include "sim/types.h"

namespace byzrename::sim {

/// Step-1 announcement of a process's own id (paper: <ID, my_id>).
struct IdMsg {
  Id id = 0;
  friend bool operator==(const IdMsg&, const IdMsg&) = default;
};

/// Step-2 echo of a previously received id (paper: <Echo, id>).
struct EchoMsg {
  Id id = 0;
  friend bool operator==(const EchoMsg&, const EchoMsg&) = default;
};

/// Step-3/4 readiness announcement (paper: <Ready, id>).
struct ReadyMsg {
  Id id = 0;
  friend bool operator==(const ReadyMsg&, const ReadyMsg&) = default;
};

/// Voting-phase vote: the sender's entire ranks array (paper: <AA, ranks>),
/// sorted by id. Receivers must tolerate arbitrary content, since
/// Byzantine senders craft these freely.
///
/// Entries sit on the sender's fixed-point grid (numeric/fixed_rank.h)
/// where they can: `nums` holds `width` little-endian two's-complement
/// limbs per id, each an integer numerator over `scale`, so receivers of
/// the same instance use the limbs with no per-delivery conversion. An
/// entry off that grid is listed in `exacts` under its index, and its
/// limbs are zero. `width == 0` means no grid: every entry is exact,
/// which is the form of exact-kernel votes and of decoded bytes. The
/// codec encodes every entry as its reduced rational, so the wire cannot
/// tell the forms apart.
struct RanksMsg {
  using Exact = std::pair<std::uint32_t, numeric::Rational>;

  std::int32_t width = 0;
  std::array<numeric::limb_t, numeric::kFixedRankLimbs> scale{};
  std::vector<Id> ids;
  std::vector<numeric::limb_t> nums;  ///< width limbs per id
  std::vector<Exact> exacts;          ///< ascending index

  /// Appends an entry carried exactly.
  void push_exact(Id id, numeric::Rational value) {
    exacts.emplace_back(static_cast<std::uint32_t>(ids.size()), std::move(value));
    ids.push_back(id);
    nums.insert(nums.end(), static_cast<std::size_t>(width), 0);
  }

  /// Visits every entry in order as on_grid(id, limbs) or
  /// off_grid(id, exact value).
  template <typename OnGrid, typename OffGrid>
  void for_each_entry(OnGrid&& on_grid, OffGrid&& off_grid) const {
    std::size_t next = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (next < exacts.size() && exacts[next].first == i) {
        off_grid(ids[i], exacts[next++].second);
      } else {
        on_grid(ids[i], nums.data() + i * static_cast<std::size_t>(width));
      }
    }
  }

  /// Visits every entry in order as visit(id, value).
  template <typename Visit>
  void for_each_value(Visit&& visit) const {
    const numeric::BigInt grid =
        width > 0 ? numeric::BigInt::from_words64(scale.data(), numeric::kFixedRankLimbs, false)
                  : numeric::BigInt();
    for_each_entry(
        [&](Id id, const numeric::limb_t* num) {
          visit(id, numeric::fixed_to_rational(num, width, grid));
        },
        visit);
  }

  friend bool operator==(const RanksMsg&, const RanksMsg&) = default;
};

/// Step-2 message of the 2-step algorithm (paper: <MultiEcho, ids>).
struct MultiEchoMsg {
  std::vector<Id> ids;
  friend bool operator==(const MultiEchoMsg&, const MultiEchoMsg&) = default;
};

/// Scalar value exchanged by the standalone approximate-agreement substrate.
struct AAValueMsg {
  numeric::Rational value;
  friend bool operator==(const AAValueMsg&, const AAValueMsg&) = default;
};

/// Generic small-integer message used by the consensus substrate
/// (phase-king rounds) and the bit-by-bit renaming baseline.
struct WordMsg {
  std::int64_t tag = 0;
  std::vector<std::int64_t> words;
  friend bool operator==(const WordMsg&, const WordMsg&) = default;
};

/// Crash-to-Byzantine translation (translate/): a simulated protocol
/// message, cast in the first half of a simulated round. The blob is the
/// codec-encoded inner payload.
struct WrappedCastMsg {
  std::int64_t sim_round = 0;
  std::vector<std::uint8_t> blob;
  friend bool operator==(const WrappedCastMsg&, const WrappedCastMsg&) = default;
};

/// Crash-to-Byzantine translation: an echo of a cast, attributed to the
/// original sender (requires the authenticated-link model).
struct WrappedEchoMsg {
  std::int64_t sender = 0;
  std::int64_t sim_round = 0;
  std::vector<std::uint8_t> blob;
  friend bool operator==(const WrappedEchoMsg&, const WrappedEchoMsg&) = default;
};

/// A message payload. Byzantine senders may emit any alternative at any
/// round with any content; correct receivers must ignore what they cannot
/// interpret at the current step.
using Payload = std::variant<IdMsg, EchoMsg, ReadyMsg, RanksMsg, MultiEchoMsg, AAValueMsg, WordMsg,
                             WrappedCastMsg, WrappedEchoMsg>;

/// Human-readable payload summary for traces and test diagnostics.
[[nodiscard]] std::string describe(const Payload& payload);

/// Immutable, ref-counted handle to a payload. A broadcast materializes
/// its payload exactly once; every Delivery then shares that one object,
/// so the N-receiver fan-out costs N refcount bumps instead of N deep
/// copies of (potentially O(N)-entry) message bodies. Receivers only
/// ever see `const Payload&`, which is what makes the sharing sound:
/// nothing downstream can mutate a delivered message.
///
/// The shared object also memoizes its codec size, so the network sizes
/// each distinct payload once however many Outbox entries carry it.
class PayloadRef {
 public:
  /// Empty handle; the network fills every Delivery it hands out, so a
  /// default-constructed ref only exists inside pooled scratch buffers.
  PayloadRef() = default;

  /// Wraps a payload (or any message alternative) in a shared object.
  /// Implicit for temporaries, so `{link, SomeMsg{...}}` keeps working;
  /// explicit for lvalues, because wrapping one deep-copies it: a
  /// sender that targets several receivers with the same message wraps
  /// it once and shares the ref instead.
  template <typename T>
    requires std::constructible_from<Payload, T&&> &&
             (!std::same_as<std::remove_cvref_t<T>, PayloadRef>)
  // NOLINTNEXTLINE(google-explicit-constructor): implicit for temporaries.
  explicit(std::is_lvalue_reference_v<T>) PayloadRef(T&& payload)
      : ptr_(std::make_shared<const Shared>(std::forward<T>(payload))) {}

  /// A weak handle on a payload object: it tells whether the object is
  /// still alive without keeping it alive. While it is, its address
  /// names it and no other payload. Memo keys that compare payloads by
  /// address hold pins, so a vote they name is freed with its last ref.
  class Pin {
   public:
    Pin() = default;
    [[nodiscard]] bool alive() const noexcept { return !ptr_.expired(); }

   private:
    friend class PayloadRef;
    std::weak_ptr<const void> ptr_;
  };

  [[nodiscard]] Pin pin() const noexcept {
    Pin pin;
    pin.ptr_ = ptr_;
    return pin;
  }

  [[nodiscard]] const Payload& operator*() const noexcept { return ptr_->payload; }
  [[nodiscard]] const Payload* operator->() const noexcept { return &ptr_->payload; }
  [[nodiscard]] explicit operator bool() const noexcept { return ptr_ != nullptr; }

  /// Exact codec size in bits (sim::encoded_bits), computed on first use
  /// and cached in the shared object.
  [[nodiscard]] std::size_t encoded_bits() const;

  /// Deep value equality (used by tests; Byzantine equivocation makes
  /// pointer identity meaningless on the wire).
  friend bool operator==(const PayloadRef& a, const PayloadRef& b) {
    if (a.ptr_ == b.ptr_) return true;
    if (a.ptr_ == nullptr || b.ptr_ == nullptr) return false;
    return a.ptr_->payload == b.ptr_->payload;
  }

 private:
  static constexpr std::size_t kUnsized = ~std::size_t{0};

  struct Shared {
    template <typename T>
    explicit Shared(T&& value) : payload(std::forward<T>(value)) {}
    Payload payload;
    /// Relaxed is enough: every thread that races here computes and
    /// stores the same value.
    mutable std::atomic<std::size_t> bits{kUnsized};
  };

  std::shared_ptr<const Shared> ptr_;
};

/// One delivered message: the receiver learns only the link label. The
/// payload handle aliases the sender's single broadcast object.
struct Delivery {
  LinkIndex link = 0;
  PayloadRef payload;
};

/// All messages delivered to one process in one round. Network hands
/// every inbox over in ascending link order (stable within a link), on
/// every delivery path — bulk broadcast, fault injection, delayed
/// batches, forgeries — so one link's deliveries are contiguous.
/// core::IdSelection's one-pass distinct-link tallies rely on this.
using Inbox = std::vector<Delivery>;

}  // namespace byzrename::sim

#endif  // BYZRENAME_SIM_PAYLOAD_H
