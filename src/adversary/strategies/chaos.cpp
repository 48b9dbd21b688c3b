#include "adversary/strategies/strategies.h"

#include <array>

#include "core/op_renaming.h"
#include "numeric/rational.h"
#include "sim/rng.h"

namespace byzrename::adversary {

namespace {

using numeric::Rational;

/// Protocol-aware randomized adversary: unlike the blind `random` fuzzer
/// it keeps a consistent honest view (an inner correct process) and each
/// round, per receiver, randomly picks among behaviours that sit right at
/// the validation boundary — honest, minimally-compressed, stretched,
/// shifted (all pass isValid), sub-delta squeezed or hole-punched (must
/// be rejected), or silence. Sweeping seeds makes this a cheap
/// property-based search over mixed-strategy attacks.
class ChaosBehavior final : public sim::ProcessBehavior {
 public:
  ChaosBehavior(const AdversaryEnv& env, sim::Id my_id, sim::Rng rng)
      : env_(env),
        delta_(core::delta(env.params)),
        rng_(std::move(rng)),
        inner_(std::make_unique<core::OpRenamingProcess>(env.params, my_id, env.options)) {}

  void on_send(sim::Round round, sim::Outbox& out) override {
    sim::Outbox inner_out(/*targeted_allowed=*/false);
    inner_->on_send(round, inner_out);
    if (round <= 4) {
      // Selection phase: forward honestly, but drop each message toward
      // each receiver with small probability (random omission).
      for (const sim::Outbox::Entry& entry : inner_out.entries()) {
        for (const auto& [index, id] : env_.correct) {
          if (rng_.chance(0.1)) continue;
          out.send_to(index, entry.payload);
        }
      }
      return;
    }
    // Each fixed face is built at most once per round and shared by
    // every receiver that draws it; only the shift face varies per draw.
    std::array<sim::PayloadRef, kFaces> faces;
    for (const auto& [index, id] : env_.correct) {
      const auto draw = static_cast<Face>(rng_.uniform(0, 6));
      if (draw == Face::kSilence) continue;
      if (draw == Face::kShift) {
        out.send_to(index, crafted(Face::kShift, rng_.uniform(-1000, 1000)));
        continue;
      }
      sim::PayloadRef& face = faces[static_cast<std::size_t>(draw)];
      if (!face) face = crafted(draw, 0);
      out.send_to(index, face);
    }
  }

  void on_receive(sim::Round round, const sim::Inbox& inbox) override {
    inner_->on_receive(round, inbox);
  }

  [[nodiscard]] bool done() const override { return true; }

 private:
  /// One per draw of rng_.uniform(0, 6), in draw order.
  enum class Face {
    kSilence,
    kHonest,
    kCompressToMinimum,
    kStretch,
    kShift,
    kSqueeze,    ///< invalid: sub-delta spacing
    kPunchHole,  ///< invalid: drops an id
  };
  static constexpr std::size_t kFaces = 7;

  [[nodiscard]] sim::PayloadRef crafted(Face face, std::int64_t shift) const {
    core::VoteBuilder vote = inner_->vote_builder();
    std::int64_t position = 0;
    inner_->for_each_rank([&](const core::RankRef& rank) {
      ++position;
      switch (face) {
        case Face::kCompressToMinimum:
          vote.push_deltas(rank.id, position);
          break;
        case Face::kStretch:
          vote.push_deltas(rank.id, 3 * position);
          break;
        case Face::kShift:
          vote.push(rank, 0, shift);
          break;
        case Face::kSqueeze:
          vote.push(rank.id, Rational(position) * delta_ / Rational(2));
          break;
        case Face::kPunchHole:
          if (position != 1) vote.push(rank);
          break;
        default:
          vote.push(rank);  // honest
          break;
      }
    });
    return vote.wrap();
  }

  AdversaryEnv env_;
  Rational delta_;
  sim::Rng rng_;
  std::unique_ptr<core::OpRenamingProcess> inner_;
};

}  // namespace

std::vector<std::unique_ptr<sim::ProcessBehavior>> make_chaos_team(const AdversaryEnv& env) {
  sim::Rng rng(env.seed * 6364136223846793005ull + 1442695040888963407ull);
  std::vector<std::unique_ptr<sim::ProcessBehavior>> team;
  team.reserve(env.byz_indices.size());
  for (std::size_t i = 0; i < env.byz_indices.size(); ++i) {
    switch (env.algorithm) {
      case core::Algorithm::kOpRenaming:
      case core::Algorithm::kOpRenamingConstantTime:
        team.push_back(std::make_unique<ChaosBehavior>(env, env.byz_ids[i], rng.fork()));
        break;
      default:
        team.push_back(make_silent());
        break;
    }
  }
  return team;
}

}  // namespace byzrename::adversary
