#include "sim/payload.h"

#include <sstream>

namespace byzrename::sim {

namespace {

constexpr std::size_t kIdBits = 64;      // ids drawn from [1..Nmax], Nmax <= 2^63
constexpr std::size_t kTagBits = 8;      // message-type discriminator
constexpr std::size_t kLengthBits = 32;  // vector length prefix

std::size_t rational_bits(const numeric::Rational& value) noexcept {
  return value.encoded_bits();
}

}  // namespace

std::size_t wire_bits(const Payload& payload) noexcept {
  return kTagBits + std::visit(
                        [](const auto& msg) -> std::size_t {
                          using T = std::decay_t<decltype(msg)>;
                          if constexpr (std::is_same_v<T, IdMsg> || std::is_same_v<T, EchoMsg> ||
                                        std::is_same_v<T, ReadyMsg>) {
                            return kIdBits;
                          } else if constexpr (std::is_same_v<T, RanksMsg>) {
                            std::size_t bits = kLengthBits + msg.ids.size() * kIdBits;
                            msg.for_each_entry(
                                [&](Id, const numeric::limb_t* num) {
                                  const numeric::ReducedBits shape =
                                      numeric::fixed_reduced_bits(num, msg.width,
                                                                  msg.scale.data());
                                  bits += shape.num_bits + shape.den_bits + 2;
                                },
                                [&](Id, const numeric::Rational& value) {
                                  bits += rational_bits(value);
                                });
                            return bits;
                          } else if constexpr (std::is_same_v<T, MultiEchoMsg>) {
                            return kLengthBits + msg.ids.size() * kIdBits;
                          } else if constexpr (std::is_same_v<T, AAValueMsg>) {
                            return rational_bits(msg.value);
                          } else if constexpr (std::is_same_v<T, WordMsg>) {
                            return kIdBits + kLengthBits + msg.words.size() * kIdBits;
                          } else if constexpr (std::is_same_v<T, WrappedCastMsg>) {
                            return kIdBits + kLengthBits + msg.blob.size() * 8;
                          } else {
                            static_assert(std::is_same_v<T, WrappedEchoMsg>);
                            return 2 * kIdBits + kLengthBits + msg.blob.size() * 8;
                          }
                        },
                        payload);
}

std::string describe(const Payload& payload) {
  std::ostringstream out;
  std::visit(
      [&out](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, IdMsg>) {
          out << "Id(" << msg.id << ")";
        } else if constexpr (std::is_same_v<T, EchoMsg>) {
          out << "Echo(" << msg.id << ")";
        } else if constexpr (std::is_same_v<T, ReadyMsg>) {
          out << "Ready(" << msg.id << ")";
        } else if constexpr (std::is_same_v<T, RanksMsg>) {
          out << "Ranks[" << msg.ids.size() << "]{";
          const char* separator = "";
          msg.for_each_value([&](Id id, const numeric::Rational& rank) {
            out << separator << id << ":" << rank;
            separator = ", ";
          });
          out << "}";
        } else if constexpr (std::is_same_v<T, MultiEchoMsg>) {
          out << "MultiEcho[" << msg.ids.size() << "]{";
          for (std::size_t i = 0; i < msg.ids.size(); ++i) {
            if (i != 0) out << ", ";
            out << msg.ids[i];
          }
          out << "}";
        } else if constexpr (std::is_same_v<T, AAValueMsg>) {
          out << "AAValue(" << msg.value << ")";
        } else if constexpr (std::is_same_v<T, WordMsg>) {
          out << "Word(tag=" << msg.tag << ", words=" << msg.words.size() << ")";
        } else if constexpr (std::is_same_v<T, WrappedCastMsg>) {
          out << "Cast(r=" << msg.sim_round << ", " << msg.blob.size() << "B)";
        } else {
          static_assert(std::is_same_v<T, WrappedEchoMsg>);
          out << "CastEcho(p" << msg.sender << ", r=" << msg.sim_round << ", " << msg.blob.size()
              << "B)";
        }
      },
      payload);
  return out.str();
}

}  // namespace byzrename::sim
