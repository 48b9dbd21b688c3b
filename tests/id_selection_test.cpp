#include "core/id_selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "core/harness.h"
#include "core/op_renaming.h"
#include "obs/telemetry.h"
#include "sim/network.h"
#include "sim/runner.h"

namespace byzrename::core {
namespace {

using sim::Id;
using sim::Inbox;

/// Builds an inbox where links [0..count) each deliver the given payload
/// factory's message.
template <typename Factory>
Inbox inbox_from_links(int count, Factory make_payload) {
  Inbox inbox;
  for (int link = 0; link < count; ++link) inbox.push_back({link, make_payload(link)});
  return inbox;
}

// ---------------------------------------------------------------------------
// Unit-level: drive the state machine with fabricated inboxes.
// ---------------------------------------------------------------------------

TEST(IdSelectionUnit, AcceptsIdEchoedByQuorum) {
  const sim::SystemParams params{.n = 7, .t = 2};
  IdSelection sel(params, 10);

  sim::Outbox out1(false);
  sel.on_send(1, out1);
  ASSERT_EQ(out1.entries().size(), 1u);
  EXPECT_EQ(std::get<sim::IdMsg>(*out1.entries()[0].payload).id, 10);

  // Step 1: hear ids 10..16 from 7 distinct links.
  sel.on_receive(1, inbox_from_links(7, [](int link) {
    return sim::Payload(sim::IdMsg{10 + link});
  }));

  // Step 2: this process echoes everything it heard.
  sim::Outbox out2(false);
  sel.on_send(2, out2);
  EXPECT_EQ(out2.entries().size(), 7u);

  // All 7 links echo id 10; only 3 links echo id 99 (below N-t = 5).
  Inbox echoes = inbox_from_links(7, [](int) { return sim::Payload(sim::EchoMsg{10}); });
  for (int link = 0; link < 3; ++link) echoes.push_back({link, sim::EchoMsg{99}});
  sel.on_receive(2, echoes);

  // Step 3: Ready goes out only for id 10.
  sim::Outbox out3(false);
  sel.on_send(3, out3);
  ASSERT_EQ(out3.entries().size(), 1u);
  EXPECT_EQ(std::get<sim::ReadyMsg>(*out3.entries()[0].payload).id, 10);

  sel.on_receive(3, inbox_from_links(7, [](int) { return sim::Payload(sim::ReadyMsg{10}); }));
  EXPECT_TRUE(sel.timely().contains(10));

  sim::Outbox out4(false);
  sel.on_send(4, out4);
  sel.on_receive(4, {});
  EXPECT_TRUE(sel.accepted().contains(10));
  EXPECT_FALSE(sel.accepted().contains(99));
}

TEST(IdSelectionUnit, OneIdPerLinkInStepOne) {
  const sim::SystemParams params{.n = 4, .t = 1};
  IdSelection sel(params, 1);
  // One link spams three different ids; only the first may count.
  Inbox inbox;
  inbox.push_back({0, sim::IdMsg{5}});
  inbox.push_back({0, sim::IdMsg{6}});
  inbox.push_back({0, sim::IdMsg{7}});
  sel.on_receive(1, inbox);
  sim::Outbox out(false);
  sel.on_send(2, out);
  ASSERT_EQ(out.entries().size(), 1u);
  EXPECT_EQ(std::get<sim::EchoMsg>(*out.entries()[0].payload).id, 5);
}

TEST(IdSelectionUnit, DuplicateEchoesFromSameLinkCountOnce) {
  const sim::SystemParams params{.n = 4, .t = 1};
  IdSelection sel(params, 1);
  sel.on_receive(1, {});
  // N-t = 3 echoes needed; two arrive from the same link.
  Inbox echoes;
  echoes.push_back({0, sim::EchoMsg{9}});
  echoes.push_back({0, sim::EchoMsg{9}});
  echoes.push_back({1, sim::EchoMsg{9}});
  sel.on_receive(2, echoes);
  sim::Outbox out(false);
  sel.on_send(3, out);
  EXPECT_TRUE(out.entries().empty());
}

TEST(IdSelectionUnit, WeakReadyQuorumTriggersStepFourAmplification) {
  const sim::SystemParams params{.n = 7, .t = 2};
  IdSelection sel(params, 1);
  sel.on_receive(1, {});
  sel.on_receive(2, {});  // nothing echoed: this process is not Ready for 42
  // Step 3: N-2t = 3 Readys arrive for id 42 — below timely (N-t = 5) but
  // enough that at least one correct process saw an echo quorum.
  sel.on_receive(3, inbox_from_links(3, [](int) { return sim::Payload(sim::ReadyMsg{42}); }));
  EXPECT_FALSE(sel.timely().contains(42));
  sim::Outbox out4(false);
  sel.on_send(4, out4);
  ASSERT_EQ(out4.entries().size(), 1u);
  EXPECT_EQ(std::get<sim::ReadyMsg>(*out4.entries()[0].payload).id, 42);
  // Two more Readys in step 4 complete the N-t quorum: accepted.
  Inbox more;
  more.push_back({3, sim::ReadyMsg{42}});
  more.push_back({4, sim::ReadyMsg{42}});
  sel.on_receive(4, more);
  EXPECT_TRUE(sel.accepted().contains(42));
  EXPECT_FALSE(sel.timely().contains(42));
}

TEST(IdSelectionUnit, NoAmplificationBelowWeakQuorum) {
  const sim::SystemParams params{.n = 7, .t = 2};
  IdSelection sel(params, 1);
  sel.on_receive(1, {});
  sel.on_receive(2, {});
  sel.on_receive(3, inbox_from_links(2, [](int) { return sim::Payload(sim::ReadyMsg{42}); }));
  sim::Outbox out4(false);
  sel.on_send(4, out4);
  EXPECT_TRUE(out4.entries().empty());
}

TEST(IdSelectionUnit, IgnoresWrongMessageTypes) {
  const sim::SystemParams params{.n = 4, .t = 1};
  IdSelection sel(params, 1);
  Inbox inbox;
  inbox.push_back({0, sim::EchoMsg{5}});               // echo during step 1
  inbox.push_back({1, sim::RanksMsg{}});               // vote during step 1
  inbox.push_back({2, sim::WordMsg{1, {1, 2, 3}}});    // consensus traffic
  sel.on_receive(1, inbox);
  sim::Outbox out(false);
  sel.on_send(2, out);
  EXPECT_TRUE(out.entries().empty());
}

TEST(IdSelectionUnit, RejectsOutOfRangeSteps) {
  const sim::SystemParams params{.n = 4, .t = 1};
  IdSelection sel(params, 1);
  sim::Outbox out(false);
  EXPECT_THROW(sel.on_send(5, out), std::logic_error);
  EXPECT_THROW(sel.on_receive(0, {}), std::logic_error);
}

TEST(IdSelectionUnit, MissedStepThreeCountsOnlyStepFourReadys) {
  // A process that crashes through step 3 (or restarts into step 4) goes
  // from step 2 straight to step 4. Its step-4 tally must start empty: a
  // full Echo quorum left over from step 2 is not a Ready count.
  const sim::SystemParams params{.n = 7, .t = 2};
  const int quorum = params.n - params.t;
  for (const int readys : {0, quorum - 1, quorum}) {
    IdSelection sel(params, 1);
    sel.on_receive(1, {});
    sel.on_receive(2, inbox_from_links(params.n, [](int) {
      return sim::Payload(sim::EchoMsg{42});
    }));
    sim::Outbox out3(false);
    sel.on_send(3, out3);
    ASSERT_EQ(out3.entries().size(), 1u);  // the Echo quorum was real
    // No on_receive(3): straight to step 4.
    sel.on_receive(4, inbox_from_links(readys, [](int) {
      return sim::Payload(sim::ReadyMsg{42});
    }));
    EXPECT_EQ(sel.accepted().contains(42), readys >= quorum) << readys << " step-4 Readys";
    EXPECT_TRUE(sel.timely().empty());
  }
}

// ---------------------------------------------------------------------------
// Differential: IdSelection against a per-id link-set recount.
// ---------------------------------------------------------------------------

/// Steps 1-4 recounted the obvious way, with one std::set of links per
/// id — the reference the one-pass tallies must match exactly.
class ReferenceSelection {
 public:
  ReferenceSelection(sim::SystemParams params, Id my_id) : params_(params), my_id_(my_id) {}

  std::vector<Id> send(sim::Round step) {
    if (step == 1) return {my_id_};
    if (step == 3) ready_sent_.insert(ids_.begin(), ids_.end());
    return {ids_.begin(), ids_.end()};
  }

  void receive(sim::Round step, const Inbox& inbox) {
    const int quorum = params_.n - params_.t;
    const int weak_quorum = params_.n - 2 * params_.t;
    if (step == 1) {
      std::set<sim::LinkIndex> seen;
      ids_.clear();
      for (const sim::Delivery& d : inbox) {
        const auto* msg = std::get_if<sim::IdMsg>(&*d.payload);
        if (msg != nullptr && seen.insert(d.link).second) ids_.insert(msg->id);
      }
    } else if (step == 2) {
      std::map<Id, std::set<sim::LinkIndex>> echo_links;
      for (const sim::Delivery& d : inbox) {
        const auto* msg = std::get_if<sim::EchoMsg>(&*d.payload);
        if (msg != nullptr) echo_links[msg->id].insert(d.link);
      }
      ids_.clear();
      for (const auto& [id, links] : echo_links) {
        if (static_cast<int>(links.size()) >= quorum) ids_.insert(id);
      }
    } else {
      for (const sim::Delivery& d : inbox) {
        const auto* msg = std::get_if<sim::ReadyMsg>(&*d.payload);
        if (msg != nullptr) ready_links_[msg->id].insert(d.link);
      }
      if (step == 3) ids_.clear();
      for (const auto& [id, links] : ready_links_) {
        const int count = static_cast<int>(links.size());
        if (step == 3) {
          if (count >= quorum) timely.insert(id);
          if (count >= weak_quorum && !ready_sent_.contains(id)) ids_.insert(id);
        } else if (count >= quorum) {
          accepted.insert(id);
        }
      }
    }
  }

  std::set<Id> timely;
  std::set<Id> accepted;

 private:
  sim::SystemParams params_;
  Id my_id_;
  std::set<Id> ids_;
  std::set<Id> ready_sent_;
  /// Ready links accumulate over steps 3 and 4 (paper, lines 24-25).
  std::map<Id, std::set<sim::LinkIndex>> ready_links_;
};

std::vector<Id> sent_ids(IdSelection& sel, sim::Round step) {
  sim::Outbox out(false);
  sel.on_send(step, out);
  std::vector<Id> ids;
  for (const sim::Outbox::Entry& entry : out.entries()) {
    std::visit(
        [&](const auto& msg) {
          using Msg = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<Msg, sim::IdMsg> || std::is_same_v<Msg, sim::EchoMsg> ||
                        std::is_same_v<Msg, sim::ReadyMsg>) {
            ids.push_back(msg.id);
          } else {
            ADD_FAILURE() << "unexpected message type";
          }
        },
        *entry.payload);
  }
  return ids;
}

bool by_link(const sim::Delivery& a, const sim::Delivery& b) { return a.link < b.link; }

/// One random selection instance: inboxes for steps 1-4 built from a small
/// id pool, with support counts clustered around the N-2t and N-t
/// thresholds so every quorum rule fires in some cases and not in others.
struct RandomCase {
  sim::SystemParams params;
  std::vector<Inbox> inboxes;  ///< index = step - 1, link-ordered
};

RandomCase make_random_case(int n, std::mt19937_64& rng) {
  const int t = (n - 1) / 3;
  RandomCase c{{.n = n, .t = t}, {}};
  const auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  // Ids: small positive, negative, and ones that differ from a small id
  // only in their high 32 bits.
  std::vector<Id> pool;
  const int pool_size = std::min(n, 12) + uniform(1, 4);
  const auto any_pool_id = [&] {
    return pool[static_cast<std::size_t>(uniform(0, pool_size - 1))];
  };
  while (static_cast<int>(pool.size()) < pool_size) {
    const Id base = uniform(1, 6);
    Id id = base;
    switch (uniform(0, 3)) {
      case 1: id = -base; break;
      case 2: id = base + (static_cast<Id>(uniform(1, 3)) << 32); break;
      case 3: id = -(base << 32); break;
      default: break;
    }
    if (std::find(pool.begin(), pool.end(), id) == pool.end()) pool.push_back(id);
  }
  const int quorum = n - t;
  const int weak_quorum = n - 2 * t;
  const auto support = [&]() {
    const int picks[] = {0, weak_quorum - 1, weak_quorum, quorum - 1, quorum, n, uniform(0, n)};
    return std::clamp(picks[uniform(0, 6)], 0, n);
  };
  std::vector<sim::LinkIndex> links(static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l) links[static_cast<std::size_t>(l)] = l;
  const auto support_links = [&](int k) {
    std::shuffle(links.begin(), links.end(), rng);
    return std::vector<sim::LinkIndex>(links.begin(), links.begin() + k);
  };

  c.inboxes.resize(4);
  for (int l = 0; l < n; ++l) {
    for (int k = uniform(1, 2); k > 0; --k) {
      c.inboxes[0].push_back({l, sim::IdMsg{any_pool_id()}});
    }
  }
  for (const Id id : pool) {
    for (const sim::LinkIndex l : support_links(support())) {
      c.inboxes[1].push_back({l, sim::EchoMsg{id}});
    }
    // Independent step-3 and step-4 supports: overlapping links repeat a
    // Ready across the two steps and must count once.
    for (const sim::LinkIndex l : support_links(support())) {
      c.inboxes[2].push_back({l, sim::ReadyMsg{id}});
    }
    for (const sim::LinkIndex l : support_links(uniform(0, 1) == 0 ? uniform(0, 2) : support())) {
      c.inboxes[3].push_back({l, sim::ReadyMsg{id}});
    }
  }
  for (int step = 1; step <= 4; ++step) {
    Inbox& inbox = c.inboxes[static_cast<std::size_t>(step - 1)];
    // Duplicate (id, link) deliveries within the step.
    for (int k = uniform(0, 3); k > 0 && !inbox.empty(); --k) {
      const int pick = uniform(0, static_cast<int>(inbox.size()) - 1);
      inbox.push_back(inbox[static_cast<std::size_t>(pick)]);
    }
    // Stray traffic: any selection message type (so other steps' types
    // too) and a non-selection one.
    for (int k = uniform(0, 3); k > 0; --k) {
      const sim::LinkIndex l = uniform(0, n - 1);
      const Id id = any_pool_id();
      switch (uniform(0, 3)) {
        case 0: inbox.push_back({l, sim::EchoMsg{id}}); break;
        case 1: inbox.push_back({l, sim::ReadyMsg{id}}); break;
        case 2: inbox.push_back({l, sim::IdMsg{id}}); break;
        default: inbox.push_back({l, sim::WordMsg{1, {id}}}); break;
      }
    }
    std::shuffle(inbox.begin(), inbox.end(), rng);
    std::stable_sort(inbox.begin(), inbox.end(), by_link);
  }
  return c;
}

TEST(IdSelectionDifferential, MatchesPerIdLinkSetRecount) {
  std::mt19937_64 rng(20130708);
  int cases = 0;
  int amplified = 0;         // a step-4 Ready broadcast fired
  int completed_late = 0;    // an id accepted without being timely
  int shuffled_differs = 0;  // the shuffled inbox really left link order
  const std::vector<std::pair<int, int>> sizes = {{4, 3500}, {7, 3500}, {16, 2500}, {64, 500}};
  for (const auto& [n, count] : sizes) {
    for (int i = 0; i < count; ++i, ++cases) {
      const RandomCase c = make_random_case(n, rng);
      for (const bool shuffle : {false, true}) {
        std::vector<Inbox> inboxes = c.inboxes;
        if (shuffle) {
          for (Inbox& inbox : inboxes) std::shuffle(inbox.begin(), inbox.end(), rng);
          if (!std::is_sorted(inboxes[1].begin(), inboxes[1].end(), by_link)) ++shuffled_differs;
        }
        IdSelection sel(c.params, 1);
        ReferenceSelection ref(c.params, 1);
        const std::string where = "n=" + std::to_string(n) + " case " + std::to_string(i) +
                                  (shuffle ? " shuffled" : " link-ordered");
        for (sim::Round step = 1; step <= 4; ++step) {
          const std::vector<Id> sent = sent_ids(sel, step);
          ASSERT_EQ(sent, ref.send(step)) << where << " on_send(" << step << ")";
          if (step == 4 && !shuffle && !sent.empty()) ++amplified;
          sel.on_receive(step, inboxes[static_cast<std::size_t>(step - 1)]);
          ref.receive(step, inboxes[static_cast<std::size_t>(step - 1)]);
          ASSERT_EQ(sel.timely(), ref.timely) << where << " timely after step " << step;
        }
        ASSERT_EQ(sel.accepted(), ref.accepted) << where;
        if (!shuffle) {
          for (const Id id : ref.accepted) {
            if (!ref.timely.contains(id)) {
              ++completed_late;
              break;
            }
          }
        }
      }
    }
  }
  EXPECT_GE(cases, 10000);
  // The generator reaches the rules it is meant to test.
  EXPECT_GT(amplified, cases / 20);
  EXPECT_GT(completed_late, cases / 20);
  EXPECT_GT(shuffled_differs, cases / 2);
}

// ---------------------------------------------------------------------------
// Integration-level: the lemmas, measured over whole networks.
// ---------------------------------------------------------------------------

struct LemmaCase {
  int n;
  int t;
  const char* adversary;
  std::uint64_t seed;
};

class IdSelectionLemmas : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(IdSelectionLemmas, LemmasHoldUnderAdversary) {
  const LemmaCase& c = GetParam();
  ScenarioConfig config;
  config.params = {.n = c.n, .t = c.t};
  config.algorithm = Algorithm::kOpRenaming;
  config.adversary = c.adversary;
  config.seed = c.seed;

  // Capture per-process selection sets right after step 4.
  std::vector<std::set<Id>> timely_sets;
  std::vector<std::set<Id>> accepted_sets;
  obs::RoundProbe probe([&](sim::Round round, const sim::Network& net) {
    if (round != 4) return;
    for (sim::ProcessIndex i = 0; i < net.size(); ++i) {
      if (net.is_byzantine(i)) continue;
      const auto& op = dynamic_cast<const OpRenamingProcess&>(net.behavior(i));
      timely_sets.push_back(op.timely());
      accepted_sets.push_back(op.selection_accepted());
    }
  });
  config.observers.push_back(&probe);
  const ScenarioResult result = run_scenario(config);
  ASSERT_FALSE(timely_sets.empty());

  // Correct ids (harness convention: correct processes are in id order).
  std::set<Id> correct_ids;
  for (const NamedProcess& p : result.named) correct_ids.insert(p.original_id);

  const int bound = c.n + (c.t * c.t) / (c.n - 2 * c.t);
  for (std::size_t p = 0; p < timely_sets.size(); ++p) {
    // Lemma IV.2: every correct id is timely everywhere.
    for (const Id id : correct_ids) {
      EXPECT_TRUE(timely_sets[p].contains(id)) << "correct id missing from timely";
    }
    // Lemma IV.3: |accepted| <= N + floor(t^2/(N-2t)).
    EXPECT_LE(static_cast<int>(accepted_sets[p].size()), bound);
    // Lemma IV.1: timely_p subseteq accepted_q for all correct p, q.
    for (std::size_t q = 0; q < accepted_sets.size(); ++q) {
      for (const Id id : timely_sets[p]) {
        EXPECT_TRUE(accepted_sets[q].contains(id))
            << "timely id " << id << " missing from another accepted set";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IdSelectionLemmas,
    ::testing::Values(LemmaCase{4, 1, "silent", 1}, LemmaCase{4, 1, "idflood", 2},
                      LemmaCase{7, 2, "idflood", 3}, LemmaCase{7, 2, "suppress", 4},
                      LemmaCase{10, 3, "idflood", 5}, LemmaCase{10, 3, "random", 6},
                      LemmaCase{13, 4, "idflood", 7}, LemmaCase{13, 4, "split", 8},
                      LemmaCase{16, 5, "idflood", 9}, LemmaCase{16, 5, "crash", 10},
                      LemmaCase{25, 8, "idflood", 11}, LemmaCase{25, 8, "suppress", 12}));

TEST(IdSelectionBound, FloodSaturatesLemmaIV3Exactly) {
  // With f == t the calibrated flood reaches |accepted| == N + t^2/(N-2t).
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{7, 2}, {10, 3}, {13, 4}, {16, 5}}) {
    ScenarioConfig config;
    config.params = {.n = n, .t = t};
    config.adversary = "idflood";
    config.seed = 99;
    const ScenarioResult result = run_scenario(config);
    const std::size_t bound = static_cast<std::size_t>(n + (t * t) / (n - 2 * t));
    EXPECT_EQ(result.max_accepted, bound) << "n=" << n << " t=" << t;
  }
}

}  // namespace
}  // namespace byzrename::core
