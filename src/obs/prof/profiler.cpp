#include "obs/prof/profiler.h"

#include <chrono>
#include <ctime>

namespace byzrename::obs::prof {

namespace {

std::uint64_t steady_wall_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t thread_cpu_ns() noexcept {
#ifdef CLOCK_THREAD_CPUTIME_ID
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

std::uint64_t Profiler::wall_now() const noexcept {
  return options_.clock.wall_ns != nullptr ? options_.clock.wall_ns() : steady_wall_ns();
}

std::uint64_t Profiler::cpu_now() const noexcept {
  return options_.clock.cpu_ns != nullptr ? options_.clock.cpu_ns() : thread_cpu_ns();
}

void Profiler::enter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (options_.hw_counters) counters_.open();  // idempotent, lazy: binds this thread
  const int parent = stack_.empty() ? 0 : stack_.back().node;
  int node = -1;
  for (const int child : nodes_[static_cast<std::size_t>(parent)].children) {
    if (nodes_[static_cast<std::size_t>(child)].name == name) {
      node = child;
      break;
    }
  }
  if (node < 0) {
    node = static_cast<int>(nodes_.size());
    Node fresh;
    fresh.name.assign(name);
    fresh.parent = parent;
    fresh.depth = parent == 0 ? 0 : nodes_[static_cast<std::size_t>(parent)].depth + 1;
    nodes_.push_back(std::move(fresh));
    nodes_[static_cast<std::size_t>(parent)].children.push_back(node);
  }
  Frame frame;
  frame.node = node;
  // Read the clocks LAST so interning/allocation above is not charged
  // as scope time, and the alloc counters FIRST of the measured set so
  // the frame's own bookkeeping never enters the delta.
  const AllocCounts allocs = AllocProfiler::thread_counts();
  frame.allocs0 = allocs.count;
  frame.bytes0 = allocs.bytes;
  if (counters_.available()) frame.hw0 = counters_.read();
  frame.cpu0 = cpu_now();
  frame.wall0 = wall_now();
  stack_.push_back(frame);
}

void Profiler::exit() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stack_.empty()) return;
  const Frame frame = stack_.back();
  stack_.pop_back();
  Node& node = nodes_[static_cast<std::size_t>(frame.node)];
  node.calls += 1;
  const std::uint64_t wall = wall_now();
  if (wall > frame.wall0) node.wall_ns += wall - frame.wall0;
  const std::uint64_t cpu = cpu_now();
  if (cpu > frame.cpu0) node.cpu_ns += cpu - frame.cpu0;
  const AllocCounts allocs = AllocProfiler::thread_counts();
  node.allocs += allocs.count - frame.allocs0;
  node.alloc_bytes += allocs.bytes - frame.bytes0;
  if (counters_.available()) {
    const HwCounts hw = counters_.read();
    node.hw.cycles += hw.cycles - frame.hw0.cycles;
    node.hw.instructions += hw.instructions - frame.hw0.instructions;
    node.hw.llc_misses += hw.llc_misses - frame.hw0.llc_misses;
    node.hw.branch_misses += hw.branch_misses - frame.hw0.branch_misses;
  }
}

bool Profiler::hw_available() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_.available();
}

ProfileSnapshot Profiler::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ProfileSnapshot snap;
  snap.hw_available = counters_.available();
  snap.nodes.reserve(nodes_.size() - 1);
  // nodes_ is already in first-visit order with parents before children
  // (a child is interned while its parent exists); dropping the
  // synthetic root shifts every index down by one.
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    ProfileNode out;
    out.name = node.name;
    out.parent = node.parent - 1;  // root's children become parent -1
    out.depth = node.depth;
    out.calls = node.calls;
    out.wall_ns = node.wall_ns;
    out.cpu_ns = node.cpu_ns;
    out.allocs = node.allocs;
    out.alloc_bytes = node.alloc_bytes;
    out.hw = node.hw;
    snap.nodes.push_back(std::move(out));
  }
  return snap;
}

std::string ProfileSnapshot::path(std::size_t index) const {
  std::string joined;
  // Walk up, then reverse-build by prepending — paths are short (phase
  // depth is 2), so the quadratic prepend never matters.
  for (int at = static_cast<int>(index); at >= 0;
       at = nodes[static_cast<std::size_t>(at)].parent) {
    const std::string& name = nodes[static_cast<std::size_t>(at)].name;
    joined = joined.empty() ? name : name + ';' + joined;
  }
  return joined;
}

}  // namespace byzrename::obs::prof
