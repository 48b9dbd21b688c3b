#include "core/voting_kernel.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>

namespace byzrename::core {

using numeric::BigInt;
using numeric::FixedConvert;
using numeric::FixedSpec;
using numeric::kFixedAccLimbs;
using numeric::kFixedRankLimbs;
using numeric::kSignBias;
using numeric::limb_t;
using numeric::Rational;
using numeric::uwide_t;
using sim::Id;

namespace {

void copy_limbs(limb_t* dst, const limb_t* src, int w) noexcept {
  for (int i = 0; i < w; ++i) dst[i] = src[i];
}

// Sort keys (FixedBallotKernel::fill builds them): the u128 form for
// width 2, big-endian limb arrays above.
using WideKey = std::array<limb_t, kFixedRankLimbs>;

void from_key(const uwide_t& key, int, limb_t* value) noexcept {
  value[0] = static_cast<limb_t>(key);
  value[1] = static_cast<limb_t>(key >> 64) ^ kSignBias;
}

void from_key(const WideKey& key, int w, limb_t* value) noexcept {
  for (int i = 0; i < w; ++i) value[i] = key[static_cast<std::size_t>(w - 1 - i)];
  value[w - 1] ^= kSignBias;
}

/// Orders keys (t > 0) far enough that positions t, 2t, ..., picks * t
/// hold their order statistics.
template <typename Key>
void order_selected(Key* keys, int n, int t, int picks) {
  if constexpr (std::is_same_v<Key, uwide_t>) {
    if (n <= numeric::kNetworkSortMax) {
      numeric::sort_u128_network(keys, n);
      return;
    }
  }
  if (picks > 8) {
    std::sort(keys, keys + n);
    return;
  }
  // Few order statistics: successive nth_element over shrinking
  // suffixes beats a full sort.
  int prev = -1;
  for (int j = 1; j <= picks; ++j) {
    std::nth_element(keys + prev + 1, keys + t * j, keys + n);
    prev = t * j;
  }
}

/// Feeds the values select_t keeps of the n keys to `add`: positions t,
/// 2t, ..., picks * t once sorted, and all of them when t == 0.
template <typename Key, typename Add>
void add_selected(Key* keys, int w, int n, int t, int picks, Add&& add) {
  limb_t value[kFixedRankLimbs];
  if (t <= 0) {
    for (int i = 0; i < n; ++i) {
      from_key(keys[i], w, value);
      add(value);
    }
    return;
  }
  order_selected(keys, n, t, picks);
  for (int j = 1; j <= picks; ++j) {
    from_key(keys[t * j], w, value);
    add(value);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FixedBallotKernel
// ---------------------------------------------------------------------------

void FixedBallotKernel::prepare(const FixedSpec& spec, int n) {
  width_ = spec.width;
  n_ = n;
  t_ = spec.t;
  picks_ = static_cast<int>(spec.select_count);
  const auto size = static_cast<std::size_t>(n);
  if (width_ == 2 && keys_.size() < size) keys_.resize(size);
  if (width_ != 2 && wide_keys_.size() < size) wide_keys_.resize(size);
}

void FixedBallotKernel::get(int i, limb_t* value) const noexcept {
  if (width_ == 2) {
    from_key(keys_[static_cast<std::size_t>(i)], width_, value);
  } else {
    from_key(wide_keys_[static_cast<std::size_t>(i)], width_, value);
  }
}

FixedBallotKernel::Outcome FixedBallotKernel::average(limb_t* out, BigInt& sum_out) {
  const int w = width_;
  limb_t acc[kFixedAccLimbs] = {};
  const auto add = [&](const limb_t* value) {
    limb_t wide[kFixedAccLimbs];
    copy_limbs(wide, value, w);
    numeric::limb_sign_extend(wide, w, w + 1);
    // Wrapping add: the true sum fits w+1 limbs, so modular two's
    // complement is exact.
    (void)numeric::limb_add_n(acc, acc, wide, w + 1);
  };
  if (w == 2) {
    add_selected(keys_.data(), w, n_, t_, picks_, add);
  } else {
    add_selected(wide_keys_.data(), w, n_, t_, picks_, add);
  }

  const bool negative = numeric::limb_is_negative(acc, w + 1);
  limb_t magnitude[kFixedAccLimbs];
  if (negative) {
    numeric::limb_neg(magnitude, acc, w + 1);
  } else {
    copy_limbs(magnitude, acc, w + 1);
  }
  limb_t quotient[kFixedAccLimbs];
  if (numeric::limb_divrem_1(quotient, magnitude, w + 1, static_cast<limb_t>(picks_)) != 0) {
    sum_out = BigInt::from_words64(magnitude, w + 1, negative);
    return Outcome::kRemainder;
  }
  // The average of w-limb values is again a w-limb value (convexity),
  // so the top quotient limb is zero and the sign fits.
  if (negative) {
    numeric::limb_neg(out, quotient, w);
  } else {
    copy_limbs(out, quotient, w);
  }
  return Outcome::kOk;
}

// ---------------------------------------------------------------------------
// VoteBuilder
// ---------------------------------------------------------------------------

VoteBuilder::VoteBuilder(const FixedSpec* grid, Rational delta)
    : grid_(grid != nullptr && grid->ok ? grid : nullptr), delta_(std::move(delta)) {
  if (grid_ != nullptr) {
    msg_.width = grid_->width;
    msg_.scale = grid_->scale;
  }
}

void VoteBuilder::reserve(std::size_t entries) {
  msg_.ids.reserve(entries);
  msg_.nums.reserve(entries * static_cast<std::size_t>(msg_.width));
}

void VoteBuilder::push(const RankRef& rank, std::int64_t deltas, std::int64_t units) {
  push_affine(rank.id, &rank, deltas, units);
}

void VoteBuilder::push_deltas(Id id, std::int64_t deltas) {
  push_affine(id, nullptr, deltas, 0);
}

void VoteBuilder::push(Id id, const Rational& value) {
  limb_t num[kFixedRankLimbs];
  if (grid_ != nullptr && numeric::rational_to_fixed(value, *grid_, num) == FixedConvert::kOk) {
    msg_.ids.push_back(id);
    msg_.nums.insert(msg_.nums.end(), num, num + grid_->width);
  } else {
    msg_.push_exact(id, value);
  }
}

namespace {

/// acc += k * unit over w + 1 limbs, unit a non-negative w + 1 limb
/// value. False when |k| * unit reaches 2^(64w): the sum may then leave
/// the accumulator, and the caller takes the exact lane instead.
bool add_multiple(limb_t* acc, const limb_t* unit, std::int64_t k, int w) noexcept {
  if (k == 0) return true;
  const limb_t magnitude =
      k < 0 ? limb_t{0} - static_cast<limb_t>(k) : static_cast<limb_t>(k);
  limb_t term[kFixedAccLimbs];
  if (numeric::limb_mul_1(term, unit, w + 1, magnitude) != 0 || term[w] != 0) return false;
  if (k < 0) numeric::limb_neg(term, term, w + 1);
  (void)numeric::limb_add_n(acc, acc, term, w + 1);
  return true;
}

}  // namespace

void VoteBuilder::push_affine(Id id, const RankRef* base, std::int64_t deltas,
                              std::int64_t units) {
  if (grid_ != nullptr && (base == nullptr || base->num != nullptr)) {
    // Sum in w + 1 limbs: each term stays below 2^(64w), so the sum
    // cannot wrap; it is on the grid by construction and joins the
    // fixed lane iff its magnitude is below 2^(64w - 1), the range
    // rational_to_fixed accepts.
    const int w = grid_->width;
    limb_t acc[kFixedAccLimbs] = {};
    if (base != nullptr) {
      copy_limbs(acc, base->num, w);
      numeric::limb_sign_extend(acc, w, w + 1);
    }
    limb_t scale[kFixedAccLimbs] = {};
    copy_limbs(scale, grid_->scale.data(), kFixedRankLimbs);
    if (add_multiple(acc, grid_->delta_scaled.data(), deltas, w) &&
        add_multiple(acc, scale, units, w)) {
      limb_t magnitude[kFixedAccLimbs];
      if (numeric::limb_is_negative(acc, w + 1)) {
        numeric::limb_neg(magnitude, acc, w + 1);
      } else {
        copy_limbs(magnitude, acc, w + 1);
      }
      if (magnitude[w] == 0 && (magnitude[w - 1] >> 63) == 0) {
        msg_.ids.push_back(id);
        msg_.nums.insert(msg_.nums.end(), acc, acc + w);
        return;
      }
    }
  }
  // Off the grid or out of range: the exact value, as a Rational sender
  // would compute it.
  Rational value = Rational(deltas) * delta_ + Rational(units);
  if (base != nullptr) {
    value += base->exact != nullptr
                 ? *base->exact
                 : numeric::fixed_to_rational(base->num, grid_->width, grid_->scale_big);
  }
  push(id, value);
}

sim::PayloadRef VoteBuilder::wrap() {
  sim::RanksMsg next;
  next.width = msg_.width;
  next.scale = msg_.scale;
  return sim::PayloadRef(std::exchange(msg_, std::move(next)));
}

// ---------------------------------------------------------------------------
// ViewCache
// ---------------------------------------------------------------------------

namespace {

std::uint64_t mix(std::uint64_t hash, std::uint64_t value) noexcept {
  hash = (hash ^ value) * 0x9e3779b97f4a7c15ull;
  return hash ^ (hash >> 29);
}

std::uint64_t address_of(const sim::Payload* payload) noexcept {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(payload));
}

}  // namespace

void ViewCache::Generation::clear() {
  entries.clear();
  votes.clear();
  run_lengths.clear();
  states.clear();
}

bool ViewCache::join(const Domain& domain) {
  if (!domain_.has_value()) {
    domain_ = domain;
    link_stamp_.assign(static_cast<std::size_t>(domain.n), 0);
  }
  return *domain_ == domain;
}

std::uint32_t ViewCache::intern_timely(const std::vector<Id>& timely, std::uint32_t hint) {
  if (hint < timely_sets_.size() && timely_sets_[hint] == timely) return hint;
  for (std::uint32_t k = 0; k < timely_sets_.size(); ++k) {
    if (timely_sets_[k] == timely) return k;
  }
  timely_sets_.push_back(timely);
  return static_cast<std::uint32_t>(timely_sets_.size() - 1);
}

void ViewCache::advance(int epoch) {
  const int current = gens_[cur_].epoch;
  if (epoch <= current) return;
  gens_[cur_ ^ 1].clear();
  if (epoch == current + 1) {
    cur_ ^= 1;
  } else {
    gens_[cur_].clear();
  }
  gens_[cur_].epoch = epoch;
}

bool ViewCache::probe(const sim::PayloadRef& state, std::uint32_t timely,
                      const sim::Inbox& inbox) {
  ++probe_serial_;
  inbox_votes_.clear();
  runs_.clear();
  sim::LinkIndex last = -1;
  for (const sim::Delivery& d : inbox) {
    if (!std::holds_alternative<sim::RanksMsg>(*d.payload)) continue;
    if (runs_.empty() || d.link != last) {
      int& stamp = link_stamp_[static_cast<std::size_t>(d.link)];
      if (stamp == probe_serial_) return false;  // the link's run was interrupted
      stamp = probe_serial_;
      runs_.push_back({static_cast<std::uint32_t>(inbox_votes_.size()), 0});
      last = d.link;
    }
    inbox_votes_.push_back(&d.payload);
    ++runs_.back().length;
  }

  // The step reads the runs as a multiset, so any total order on them
  // is canonical: by object address, lexicographically.
  const auto address_less = [](const sim::PayloadRef* a, const sim::PayloadRef* b) {
    return std::less<const sim::Payload*>{}(&**a, &**b);
  };
  std::sort(runs_.begin(), runs_.end(), [&](const Run& a, const Run& b) {
    const auto* first_a = inbox_votes_.data() + a.begin;
    const auto* first_b = inbox_votes_.data() + b.begin;
    return std::lexicographical_compare(first_a, first_a + a.length, first_b,
                                        first_b + b.length, address_less);
  });

  key_state_ = &state;
  key_timely_ = timely;
  key_votes_.clear();
  key_lengths_.clear();
  std::uint64_t hash = mix(mix(address_of(&*state), timely), runs_.size());
  for (const Run& run : runs_) {
    key_lengths_.push_back(run.length);
    hash = mix(hash, run.length);
    for (std::uint32_t i = 0; i < run.length; ++i) {
      const sim::PayloadRef* vote = inbox_votes_[run.begin + i];
      key_votes_.push_back(vote);
      hash = mix(hash, address_of(&**vote));
    }
  }
  key_hash_ = hash;
  return true;
}

bool ViewCache::matches(const Generation& gen, const Entry& entry) const {
  if (entry.hash != key_hash_ || entry.state.address != &**key_state_ ||
      entry.timely != key_timely_ || entry.runs != key_lengths_.size() ||
      entry.votes != key_votes_.size()) {
    return false;
  }
  for (std::size_t r = 0; r < key_lengths_.size(); ++r) {
    if (gen.run_lengths[entry.first_run + r] != key_lengths_[r]) return false;
  }
  // An address names the object it was pinned for only while that
  // object lives.
  for (std::size_t v = 0; v < key_votes_.size(); ++v) {
    const Pinned& vote = gen.votes[entry.first_vote + v];
    if (vote.address != &**key_votes_[v] || !vote.pin.alive()) return false;
  }
  return entry.state.pin.alive();
}

const ViewCache::Entry* ViewCache::find() {
  for (const Entry& entry : gens_[cur_].entries) {
    if (matches(gens_[cur_], entry)) return &entry;
  }
  const Generation& prev = gens_[cur_ ^ 1];
  for (const Entry& entry : prev.entries) {
    // A view from the previous step recurs once states stop moving:
    // carry it into the current generation so it outlives the next
    // eviction.
    if (matches(prev, entry)) return &add_entry(entry.state, entry.next, entry.rejected);
  }
  return nullptr;
}

void ViewCache::insert(const sim::PayloadRef& next, int rejected) {
  (void)add_entry({&**key_state_, key_state_->pin()}, next, rejected);
}

const ViewCache::Entry& ViewCache::add_entry(const Pinned& state, const sim::PayloadRef& next,
                                             int rejected) {
  // The key is the probed one (a promoted entry matched it exactly), so
  // the pins come from the probe: they name the same objects.
  Generation& gen = gens_[cur_];
  Entry& entry = gen.entries.emplace_back();
  entry.hash = key_hash_;
  entry.state = state;
  entry.timely = key_timely_;
  entry.first_run = static_cast<std::uint32_t>(gen.run_lengths.size());
  entry.runs = static_cast<std::uint32_t>(key_lengths_.size());
  entry.first_vote = static_cast<std::uint32_t>(gen.votes.size());
  entry.votes = static_cast<std::uint32_t>(key_votes_.size());
  entry.next = next;
  entry.rejected = rejected;
  gen.run_lengths.insert(gen.run_lengths.end(), key_lengths_.begin(), key_lengths_.end());
  for (const sim::PayloadRef* vote : key_votes_) gen.votes.push_back({&**vote, vote->pin()});
  return entry;
}

// ---------------------------------------------------------------------------
// FixedVotingEngine
// ---------------------------------------------------------------------------

FixedVotingEngine::FixedVotingEngine(sim::SystemParams params, RenamingOptions options,
                                     int iterations)
    : params_(params),
      options_(options),
      spec_(numeric::derive_fixed_spec(params.n, params.t, iterations)),
      delta_(delta(params)),
      w_(spec_.width) {
  link_seen_.assign(static_cast<std::size_t>(params.n), 0);
  if (options_.view_cache != nullptr && spec_.ok) {
    const ViewCache::Domain domain{params_.n, params_.t, w_, spec_.scale,
                                   options_.validate_votes};
    if (options_.view_cache->join(domain)) cache_ = options_.view_cache;
  }
}

void FixedVotingEngine::assign_initial_ranks(const std::set<Id>& accepted) {
  ids_.clear();
  nums_.clear();
  is_exact_.clear();
  overrides_.clear();
  limb_t position = 0;
  limb_t value[kFixedRankLimbs];
  for (const Id id : accepted) {
    ++position;
    // position * delta = position * (S + c^I) / S: always on-grid and
    // within width (the headroom covers (N+t) * delta * S).
    const limb_t carry = numeric::limb_mul_1(value, spec_.delta_scaled.data(), w_, position);
    if (carry != 0) throw std::logic_error("FixedVotingEngine: initial rank overflow");
    ids_.push_back(id);
    nums_.insert(nums_.end(), value, value + w_);
    is_exact_.push_back(0);
  }
  if (cache_ != nullptr) state_ = intern_state();
}

sim::PayloadRef FixedVotingEngine::encode_ranks() const {
  return state_ ? state_ : encode_columns();
}

sim::PayloadRef FixedVotingEngine::encode_columns() const {
  // The vote is a copy of the state columns. An override never fits the
  // grid (push_override's callers see to that), so it is a side entry.
  sim::RanksMsg msg{w_, spec_.scale, ids_, nums_, {}};
  if (!overrides_.empty()) {
    for (std::uint32_t k = 0; k < ids_.size(); ++k) {
      if (is_exact_[k] != 0) msg.exacts.emplace_back(k, overrides_.at(ids_[k]));
    }
  }
  return sim::PayloadRef(std::move(msg));
}

sim::PayloadRef FixedVotingEngine::intern_state() {
  std::uint64_t hash = mix(ids_.size(), overrides_.size());
  for (const Id id : ids_) hash = mix(hash, id);
  for (const limb_t limb : nums_) hash = mix(hash, limb);
  // The vote encode_columns would build: same columns, same side list.
  const auto same = [this](const sim::RanksMsg& vote) {
    if (vote.ids != ids_ || vote.nums != nums_ || vote.exacts.size() != overrides_.size()) {
      return false;
    }
    for (const auto& [k, value] : vote.exacts) {
      if (is_exact_[k] == 0 || overrides_.at(ids_[k]) != value) return false;
    }
    return true;
  };
  sim::PayloadRef state = cache_->find_state(hash, same);
  if (!state) {
    state = encode_columns();
    cache_->add_state(hash, state);
  }
  return state;
}

void FixedVotingEngine::load(const sim::RanksMsg& next, std::set<Id>& accepted) {
  std::size_t kept = 0;
  for (const Id id : ids_) {
    if (kept < next.ids.size() && next.ids[kept] == id) {
      ++kept;
    } else {
      accepted.erase(id);
    }
  }
  ids_.assign(next.ids.begin(), next.ids.end());
  nums_.assign(next.nums.begin(), next.nums.end());
  is_exact_.assign(ids_.size(), 0);
  overrides_.clear();
  for (const auto& [k, value] : next.exacts) {
    is_exact_[k] = 1;
    overrides_.emplace(ids_[k], value);
  }
}

namespace {

/// Gap validity over the fixed lane: cur - prev >= delta * S, computed
/// in w+1-limb two's complement (no overflow). Honest values (and the
/// strategy zoo's shifted variants) are small non-negative one-limb
/// numerators, so the common case folds to a single u64 compare.
bool gap_ok(const limb_t* prev, const limb_t* cur, const FixedSpec& spec) noexcept {
  const int w = spec.width;
  if (w == 2 && ((prev[1] | cur[1] | (prev[0] >> 63) | (cur[0] >> 63)) == 0) &&
      spec.delta_scaled[1] == 0) {
    // All three quantities in [0, 2^63): prev + delta cannot wrap.
    return cur[0] >= prev[0] + spec.delta_scaled[0];
  }
  limb_t a[kFixedAccLimbs];
  limb_t b[kFixedAccLimbs];
  limb_t diff[kFixedAccLimbs];
  copy_limbs(a, cur, w);
  numeric::limb_sign_extend(a, w, w + 1);
  copy_limbs(b, prev, w);
  numeric::limb_sign_extend(b, w, w + 1);
  (void)numeric::limb_sub_n(diff, a, b, w + 1);
  (void)numeric::limb_sub_n(diff, diff, spec.delta_scaled.data(), w + 1);
  return !numeric::limb_is_negative(diff, w + 1);
}

}  // namespace

// A value on the instance grid has at most 64w magnitude bits over an S
// below 2^(64 * kFixedRankLimbs), so in lowest terms it needs at most
// 64w + 64 * kFixedRankLimbs + 2 bits: the rank budget binds only side
// entries.
static_assert(2 * 64 * kFixedRankLimbs + 2 <= kMaxRankBits);

bool FixedVotingEngine::admit(const sim::RanksMsg& msg) {
  const std::size_t count = msg.ids.size();
  if (msg.nums.size() != count * static_cast<std::size_t>(msg.width)) return false;
  if (msg.width != 0 && (msg.width != w_ || msg.scale != spec_.scale)) {
    // Another instance's grid (no sender here produces one; handled for
    // totality): admit an all-exact copy, kept until the next step.
    sim::RanksMsg& copy = foreign_.emplace_back();
    msg.for_each_value([&copy](Id id, const Rational& value) { copy.push_exact(id, value); });
    return admit(copy);
  }
  if (static_cast<int>(count) > max_vote_entries(params_)) return false;

  // Ids ascend. The side list names entries in ascending index order,
  // each within the rank budget, and without a grid it names all of them.
  const Id* ids = msg.ids.data();
  for (std::size_t i = 1; i < count; ++i) {
    if (ids[i] <= ids[i - 1]) return false;  // unsorted or duplicate id
  }
  const Exact* const side = msg.exacts.data();
  const Exact* const side_end = side + msg.exacts.size();
  if (msg.width == 0 && msg.exacts.size() != count) return false;
  for (const Exact* entry = side; entry != side_end; ++entry) {
    if (entry->first >= count || (entry != side && entry->first <= entry[-1].first) ||
        entry->second.encoded_bits() > kMaxRankBits) {
      return false;
    }
  }

  if (options_.validate_votes) {
    // is_valid_ranks: every timely id ranked, with consecutive ranks
    // separated by at least delta; in limbs while both are on the grid.
    const int w = w_;
    const limb_t* nums = msg.nums.data();
    const Exact* next_side = side;
    const limb_t* prev_num = nullptr;
    const Rational* prev_exact = nullptr;
    std::size_t pos = 0;
    for (const Id id : timely_flat_) {
      while (pos < count && ids[pos] < id) ++pos;
      if (pos >= count || ids[pos] != id) return false;
      while (next_side != side_end && next_side->first < pos) ++next_side;
      const Rational* cur_exact =
          next_side != side_end && next_side->first == pos ? &next_side->second : nullptr;
      const limb_t* cur_num = cur_exact == nullptr ? nums + pos * w : nullptr;
      if (prev_num == nullptr && prev_exact == nullptr) {
        // The first timely id: no gap to check.
      } else if (prev_exact == nullptr && cur_exact == nullptr) {
        if (!gap_ok(prev_num, cur_num, spec_)) return false;
      } else {
        const Rational a = prev_exact != nullptr
                               ? *prev_exact
                               : numeric::fixed_to_rational(prev_num, w, spec_.scale_big);
        const Rational b = cur_exact != nullptr
                               ? *cur_exact
                               : numeric::fixed_to_rational(cur_num, w, spec_.scale_big);
        if (b - a < delta_) return false;
      }
      prev_num = cur_num;
      prev_exact = cur_exact;
    }
  }

  votes_.push_back(Vote{ids, msg.nums.data(), static_cast<std::uint32_t>(count), 0, side,
                        side_end, side != side_end ? side->first : kNoSide});
  return true;
}

void FixedVotingEngine::push_result(Id id, const limb_t* num) {
  next_ids_.push_back(id);
  next_nums_.insert(next_nums_.end(), num, num + w_);
  next_is_exact_.push_back(0);
}

void FixedVotingEngine::push_override(Id id, Rational value) {
  next_ids_.push_back(id);
  for (int i = 0; i < w_; ++i) next_nums_.push_back(0);
  next_is_exact_.push_back(1);
  next_overrides_.emplace(id, std::move(value));
}

void FixedVotingEngine::step(const sim::Inbox& inbox, const std::set<Id>& timely,
                             std::set<Id>& accepted, int& rejected_votes) {
  ++step_serial_;
  timely_flat_.assign(timely.begin(), timely.end());
  if (cache_ == nullptr) {
    compute(inbox, accepted, rejected_votes);
    return;
  }
  cache_->advance(step_serial_);
  ++cache_->lookups_;
  // A process restarted past round 4 votes without initial ranks.
  if (!state_) state_ = intern_state();
  timely_key_ = cache_->intern_timely(timely_flat_, timely_key_);
  const bool keyed = cache_->probe(state_, timely_key_, inbox);
  if (const ViewCache::Entry* hit = keyed ? cache_->find() : nullptr) {
    load(std::get<sim::RanksMsg>(*hit->next), accepted);
    rejected_votes += hit->rejected;
    state_ = hit->next;
    return;
  }
  ++cache_->computed_;
  const int rejected_before = rejected_votes;
  compute(inbox, accepted, rejected_votes);
  sim::PayloadRef next = intern_state();
  if (keyed) cache_->insert(next, rejected_votes - rejected_before);
  state_ = std::move(next);
}

void FixedVotingEngine::compute(const sim::Inbox& inbox, std::set<Id>& accepted,
                                int& rejected_votes) {
  const int n = params_.n;
  const int t = params_.t;
  votes_.clear();
  foreign_.clear();

  // Admission: at most one vote per link, counted and filtered exactly
  // like the oracle path (decode_vote + is_valid_ranks). As there, a
  // link is only burned by an *accepted* vote.
  for (const sim::Delivery& d : inbox) {
    const auto* msg = std::get_if<sim::RanksMsg>(&*d.payload);
    if (msg == nullptr) continue;
    if (link_seen_[static_cast<std::size_t>(d.link)] == step_serial_) {
      ++rejected_votes;
      continue;
    }
    if (admit(*msg)) {
      link_seen_[static_cast<std::size_t>(d.link)] = step_serial_;
    } else {
      ++rejected_votes;
    }
  }

  // Gather-and-average, one merge pass over the sorted votes per id.
  next_ids_.clear();
  next_nums_.clear();
  next_is_exact_.clear();
  next_overrides_.clear();
  kernel_.prepare(spec_, n);
  if (exact_hits_.size() < static_cast<std::size_t>(n)) {
    exact_hits_.resize(static_cast<std::size_t>(n));
  }

  const int w = w_;
  for (std::size_t k = 0; k < ids_.size(); ++k) {
    const Id id = ids_[k];
    int count = 0;
    std::size_t hits = 0;
    kernel_.fill([&](auto set) {
      for (Vote& vote : votes_) {
        while (vote.cursor < vote.count && vote.ids[vote.cursor] < id) ++vote.cursor;
        if (vote.cursor >= vote.count || vote.ids[vote.cursor] != id) continue;
        const std::uint32_t at = vote.cursor++;
        if (vote.side_at <= at) {
          // Past the side entries of ids this engine no longer holds.
          while (vote.side_at < at) vote.pass_side();
          if (vote.side_at == at) {
            exact_hits_[hits++] = {static_cast<std::uint32_t>(count++), &vote.side->second};
            continue;
          }
        }
        set(count++, vote.nums + static_cast<std::size_t>(at) * w);
      }
    });

    if (count < n - t) {
      // Fewer than N-t votes: discarded (Alg. 3 line 08); never a
      // timely id of any correct process (Cor. IV.5).
      accepted.erase(id);
      continue;
    }

    // Pad to exactly N with the local value (Alg. 3 lines 10-11).
    if (count < n) {
      if (is_exact_[k] != 0) {
        const Rational& own = overrides_.at(id);
        while (count < n) exact_hits_[hits++] = {static_cast<std::uint32_t>(count++), &own};
      } else {
        const limb_t* own = nums_.data() + k * static_cast<std::size_t>(w);
        kernel_.fill([&](auto set) {
          while (count < n) set(count++, own);
        });
      }
    }

    if (hits == 0) {
      limb_t result[kFixedRankLimbs];
      BigInt sum;
      if (kernel_.average(result, sum) == FixedBallotKernel::Outcome::kOk) {
        push_result(id, result);
      } else {
        // Sum not divisible by c: the exact average sum / (c*S) left
        // the grid (only reachable via admitted Byzantine values).
        push_override(id, Rational(sum, BigInt(spec_.select_count) * spec_.scale_big));
      }
      continue;
    }

    // Exact lane: at least one ballot entry is off the grid, so the
    // oracle's trimmed_mean averages the ballot.
    exact_ballot_.clear();
    std::size_t hit = 0;
    for (int j = 0; j < n; ++j) {
      if (hit < hits &&
          exact_hits_[hit].first == static_cast<std::uint32_t>(j)) {
        exact_ballot_.push_back(*exact_hits_[hit].second);
        ++hit;
      } else {
        limb_t value[kFixedRankLimbs];
        kernel_.get(j, value);
        exact_ballot_.push_back(numeric::fixed_to_rational(value, w, spec_.scale_big));
      }
    }
    Rational result = trimmed_mean(exact_ballot_, t);
    limb_t fixed_result[kFixedRankLimbs];
    if (numeric::rational_to_fixed(result, spec_, fixed_result) == FixedConvert::kOk) {
      push_result(id, fixed_result);  // landed back on the grid
    } else {
      push_override(id, std::move(result));
    }
  }

  ids_.swap(next_ids_);
  nums_.swap(next_nums_);
  is_exact_.swap(next_is_exact_);
  overrides_.swap(next_overrides_);
}

RankMap FixedVotingEngine::materialize() const {
  RankMap out;
  for (std::size_t k = 0; k < ids_.size(); ++k) {
    if (is_exact_[k] != 0) {
      out.emplace(ids_[k], overrides_.at(ids_[k]));
    } else {
      out.emplace(ids_[k], numeric::fixed_to_rational(
                               nums_.data() + k * static_cast<std::size_t>(w_), w_,
                               spec_.scale_big));
    }
  }
  return out;
}

std::optional<Rational> FixedVotingEngine::rank_of(Id id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return std::nullopt;
  const auto k = static_cast<std::size_t>(it - ids_.begin());
  if (is_exact_[k] != 0) return overrides_.at(id);
  return numeric::fixed_to_rational(nums_.data() + k * static_cast<std::size_t>(w_), w_,
                                    spec_.scale_big);
}

}  // namespace byzrename::core
