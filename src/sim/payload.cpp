#include "sim/payload.h"

#include <sstream>

namespace byzrename::sim {

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
