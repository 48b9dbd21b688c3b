#include "sim/codec.h"

#include <limits>

#include "numeric/bigint.h"
#include "numeric/fixed_rank.h"
#include "numeric/rational.h"

namespace byzrename::sim {

namespace {

using numeric::BigInt;
using numeric::Rational;

enum class Kind : std::uint8_t {
  kId = 1,
  kEcho = 2,
  kReady = 3,
  kRanks = 4,
  kMultiEcho = 5,
  kAAValue = 6,
  kWord = 7,
  kWrappedCast = 8,
  kWrappedEcho = 9,
};

// --- writing ---------------------------------------------------------------

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_svarint(std::vector<std::uint8_t>& out, std::int64_t value) {
  // Zigzag: interleave signs so small magnitudes encode small.
  const auto raw = static_cast<std::uint64_t>(value);
  put_varint(out, (raw << 1) ^ static_cast<std::uint64_t>(value >> 63));
}

void put_bigint(std::vector<std::uint8_t>& out, const BigInt& value) {
  const std::vector<std::uint8_t> magnitude = value.magnitude_bytes();
  put_varint(out, (static_cast<std::uint64_t>(magnitude.size()) << 1) |
                      (value.is_negative() ? 1u : 0u));
  out.insert(out.end(), magnitude.begin(), magnitude.end());
}

void put_rational(std::vector<std::uint8_t>& out, const Rational& value) {
  put_bigint(out, value.numerator());
  // Denominator is canonically positive; encode without sign bit.
  const std::vector<std::uint8_t> magnitude = value.denominator().magnitude_bytes();
  put_varint(out, static_cast<std::uint64_t>(magnitude.size()));
  out.insert(out.end(), magnitude.begin(), magnitude.end());
}

// --- analytic sizes --------------------------------------------------------
// The network charges encoded_bits() on every broadcast; these mirror
// the writers above byte-for-byte without materializing any buffer.

std::size_t varint_len(std::uint64_t value) noexcept {
  std::size_t bytes = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++bytes;
  }
  return bytes;
}

std::size_t svarint_len(std::int64_t value) noexcept {
  const auto raw = static_cast<std::uint64_t>(value);
  return varint_len((raw << 1) ^ static_cast<std::uint64_t>(value >> 63));
}

std::size_t reduced_len(const numeric::ReducedBits& shape) noexcept {
  const std::size_t num_bytes = (shape.num_bits + 7) / 8;
  const std::size_t den_bytes = (shape.den_bits + 7) / 8;
  return varint_len((static_cast<std::uint64_t>(num_bytes) << 1) | (shape.negative ? 1u : 0u)) +
         num_bytes + varint_len(den_bytes) + den_bytes;
}

std::size_t rational_len(const Rational& value) noexcept {
  return reduced_len({value.numerator().bit_length(), value.denominator().bit_length(),
                      value.is_negative()});
}

// --- reading ---------------------------------------------------------------

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }

  [[nodiscard]] std::optional<std::uint8_t> byte() {
    if (pos_ >= bytes_.size()) return std::nullopt;
    return bytes_[pos_++];
  }

  [[nodiscard]] std::optional<std::uint64_t> varint() {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const auto next = byte();
      if (!next.has_value()) return std::nullopt;
      value |= static_cast<std::uint64_t>(*next & 0x7F) << shift;
      if ((*next & 0x80) == 0) {
        // Canonicality: no zero-padding groups (0x80 0x00 is not 0) and
        // no bits beyond 64 in the last possible group.
        if (shift > 0 && *next == 0) return std::nullopt;
        if (shift == 63 && (*next & 0x7E) != 0) return std::nullopt;
        return value;
      }
    }
    return std::nullopt;  // continuation bit never cleared
  }

  [[nodiscard]] std::optional<std::int64_t> svarint() {
    const auto raw = varint();
    if (!raw.has_value()) return std::nullopt;
    return static_cast<std::int64_t>((*raw >> 1) ^ (~(*raw & 1) + 1));
  }

  [[nodiscard]] std::optional<std::vector<std::uint8_t>> blob(std::uint64_t length) {
    if (length > bytes_.size() - pos_) return std::nullopt;
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + length));
    pos_ += length;
    return out;
  }

  [[nodiscard]] std::optional<BigInt> bigint() {
    const auto header = varint();
    if (!header.has_value()) return std::nullopt;
    const bool negative = (*header & 1) != 0;
    const auto bytes = blob(*header >> 1);
    if (!bytes.has_value()) return std::nullopt;
    if (!bytes->empty() && bytes->back() == 0) return std::nullopt;  // non-canonical
    return BigInt::from_magnitude_bytes(*bytes, negative);
  }

  [[nodiscard]] std::optional<Rational> rational() {
    const auto numerator = bigint();
    if (!numerator.has_value()) return std::nullopt;
    const auto den_length = varint();
    if (!den_length.has_value()) return std::nullopt;
    const auto den_bytes = blob(*den_length);
    if (!den_bytes.has_value()) return std::nullopt;
    if (!den_bytes->empty() && den_bytes->back() == 0) return std::nullopt;
    const BigInt denominator = BigInt::from_magnitude_bytes(*den_bytes, false);
    if (denominator.is_zero()) return std::nullopt;
    return Rational(*numerator, denominator);
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

constexpr std::uint64_t kMaxVectorEntries = 1 << 20;  // sanity cap on Byzantine input

}  // namespace

std::vector<std::uint8_t> encode(const Payload& payload) {
  std::vector<std::uint8_t> out;
  std::visit(
      [&out](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, IdMsg>) {
          out.push_back(static_cast<std::uint8_t>(Kind::kId));
          put_svarint(out, msg.id);
        } else if constexpr (std::is_same_v<T, EchoMsg>) {
          out.push_back(static_cast<std::uint8_t>(Kind::kEcho));
          put_svarint(out, msg.id);
        } else if constexpr (std::is_same_v<T, ReadyMsg>) {
          out.push_back(static_cast<std::uint8_t>(Kind::kReady));
          put_svarint(out, msg.id);
        } else if constexpr (std::is_same_v<T, RanksMsg>) {
          out.push_back(static_cast<std::uint8_t>(Kind::kRanks));
          put_varint(out, msg.ids.size());
          msg.for_each_value([&out](Id id, const Rational& rank) {
            put_svarint(out, id);
            put_rational(out, rank);
          });
        } else if constexpr (std::is_same_v<T, MultiEchoMsg>) {
          out.push_back(static_cast<std::uint8_t>(Kind::kMultiEcho));
          put_varint(out, msg.ids.size());
          for (const Id id : msg.ids) put_svarint(out, id);
        } else if constexpr (std::is_same_v<T, AAValueMsg>) {
          out.push_back(static_cast<std::uint8_t>(Kind::kAAValue));
          put_rational(out, msg.value);
        } else if constexpr (std::is_same_v<T, WordMsg>) {
          out.push_back(static_cast<std::uint8_t>(Kind::kWord));
          put_svarint(out, msg.tag);
          put_varint(out, msg.words.size());
          for (const std::int64_t word : msg.words) put_svarint(out, word);
        } else if constexpr (std::is_same_v<T, WrappedCastMsg>) {
          out.push_back(static_cast<std::uint8_t>(Kind::kWrappedCast));
          put_svarint(out, msg.sim_round);
          put_varint(out, msg.blob.size());
          out.insert(out.end(), msg.blob.begin(), msg.blob.end());
        } else {
          static_assert(std::is_same_v<T, WrappedEchoMsg>);
          out.push_back(static_cast<std::uint8_t>(Kind::kWrappedEcho));
          put_svarint(out, msg.sender);
          put_svarint(out, msg.sim_round);
          put_varint(out, msg.blob.size());
          out.insert(out.end(), msg.blob.begin(), msg.blob.end());
        }
      },
      payload);
  return out;
}

std::optional<Payload> decode(const std::vector<std::uint8_t>& bytes) {
  Reader reader(bytes);
  const auto kind = reader.byte();
  if (!kind.has_value()) return std::nullopt;

  std::optional<Payload> result;
  switch (static_cast<Kind>(*kind)) {
    case Kind::kId:
    case Kind::kEcho:
    case Kind::kReady: {
      const auto id = reader.svarint();
      if (!id.has_value()) return std::nullopt;
      if (static_cast<Kind>(*kind) == Kind::kId) {
        result = IdMsg{*id};
      } else if (static_cast<Kind>(*kind) == Kind::kEcho) {
        result = EchoMsg{*id};
      } else {
        result = ReadyMsg{*id};
      }
      break;
    }
    case Kind::kRanks: {
      const auto count = reader.varint();
      if (!count.has_value() || *count > kMaxVectorEntries) return std::nullopt;
      RanksMsg msg;
      msg.ids.reserve(static_cast<std::size_t>(*count));
      msg.exacts.reserve(static_cast<std::size_t>(*count));
      for (std::uint64_t i = 0; i < *count; ++i) {
        const auto id = reader.svarint();
        if (!id.has_value()) return std::nullopt;
        auto rank = reader.rational();
        if (!rank.has_value()) return std::nullopt;
        msg.push_exact(*id, std::move(*rank));
      }
      result = std::move(msg);
      break;
    }
    case Kind::kMultiEcho: {
      const auto count = reader.varint();
      if (!count.has_value() || *count > kMaxVectorEntries) return std::nullopt;
      MultiEchoMsg msg;
      msg.ids.reserve(static_cast<std::size_t>(*count));
      for (std::uint64_t i = 0; i < *count; ++i) {
        const auto id = reader.svarint();
        if (!id.has_value()) return std::nullopt;
        msg.ids.push_back(*id);
      }
      result = std::move(msg);
      break;
    }
    case Kind::kAAValue: {
      auto value = reader.rational();
      if (!value.has_value()) return std::nullopt;
      result = AAValueMsg{std::move(*value)};
      break;
    }
    case Kind::kWord: {
      const auto tag = reader.svarint();
      if (!tag.has_value()) return std::nullopt;
      const auto count = reader.varint();
      if (!count.has_value() || *count > kMaxVectorEntries) return std::nullopt;
      WordMsg msg{*tag, {}};
      msg.words.reserve(static_cast<std::size_t>(*count));
      for (std::uint64_t i = 0; i < *count; ++i) {
        const auto word = reader.svarint();
        if (!word.has_value()) return std::nullopt;
        msg.words.push_back(*word);
      }
      result = std::move(msg);
      break;
    }
    case Kind::kWrappedCast: {
      const auto sim_round = reader.svarint();
      if (!sim_round.has_value()) return std::nullopt;
      const auto length = reader.varint();
      if (!length.has_value() || *length > kMaxVectorEntries) return std::nullopt;
      auto blob = reader.blob(*length);
      if (!blob.has_value()) return std::nullopt;
      result = WrappedCastMsg{*sim_round, std::move(*blob)};
      break;
    }
    case Kind::kWrappedEcho: {
      const auto sender = reader.svarint();
      if (!sender.has_value()) return std::nullopt;
      const auto sim_round = reader.svarint();
      if (!sim_round.has_value()) return std::nullopt;
      const auto length = reader.varint();
      if (!length.has_value() || *length > kMaxVectorEntries) return std::nullopt;
      auto blob = reader.blob(*length);
      if (!blob.has_value()) return std::nullopt;
      result = WrappedEchoMsg{*sender, *sim_round, std::move(*blob)};
      break;
    }
    default:
      return std::nullopt;
  }
  if (!reader.at_end()) return std::nullopt;  // trailing garbage
  return result;
}

std::size_t encoded_bits(const Payload& payload) {
  // Rational-bearing messages dominate the hot all-to-all rounds; size
  // them analytically so the per-broadcast charge allocates nothing.
  // codec_test asserts these equal 8 * encode().size() exactly.
  if (const auto* ranks = std::get_if<RanksMsg>(&payload)) {
    std::size_t bytes = 1 + varint_len(ranks->ids.size());
    ranks->for_each_entry(
        [&](Id id, const numeric::limb_t* num) {
          bytes += svarint_len(id) +
                   reduced_len(numeric::fixed_reduced_bits(num, ranks->width,
                                                           ranks->scale.data()));
        },
        [&](Id id, const Rational& rank) { bytes += svarint_len(id) + rational_len(rank); });
    return bytes * 8;
  }
  if (const auto* aa = std::get_if<AAValueMsg>(&payload)) {
    return (1 + rational_len(aa->value)) * 8;
  }
  return encode(payload).size() * 8;
}

std::size_t PayloadRef::encoded_bits() const {
  std::size_t bits = ptr_->bits.load(std::memory_order_relaxed);
  if (bits == kUnsized) {
    bits = sim::encoded_bits(ptr_->payload);
    ptr_->bits.store(bits, std::memory_order_relaxed);
  }
  return bits;
}

}  // namespace byzrename::sim
