// Order statistics, the max-rate bisection and the input digest shared
// by every workload. Header-only so the self-test binary exercises the
// exact code the benchmark runs.
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string_view>
#include <vector>

namespace perfbench {

/// A timing distribution reduced the way the benchmark reports it: the
/// median, plus the highest of p90/p99/p99.9 that still has at least ten
/// samples beyond it (tail_pct = 0 when fewer than 100 samples exist, so
/// no tail is reported), plus the sample count.
struct Summary {
  std::size_t count = 0;
  double median = 0;
  double tail = 0;
  double tail_pct = 0;
};

/// 1-based nearest rank of percentile @p pct in @p count samples. The
/// epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
inline std::size_t nearest_rank(double pct, std::size_t count) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(count) - 1e-9);
  return std::min(static_cast<std::size_t>(std::max(rank, 1.0)), count);
}

/// Nearest-rank percentile (0 < pct <= 100) of a sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(pct, sorted.size()) - 1];
}

/// Nearest-rank percentile of an unsorted sample.
inline double percentile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, pct);
}

/// Median as the mean of the two middle values for even counts.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

inline Summary summarize(std::vector<double> values) {
  Summary summary;
  summary.count = values.size();
  if (values.empty()) return summary;
  summary.median = median(values);
  std::sort(values.begin(), values.end());
  for (const double pct : {99.9, 99.0, 90.0}) {
    // Samples strictly beyond the nearest-rank position.
    if (values.size() - nearest_rank(pct, values.size()) >= 10) {
      summary.tail_pct = pct;
      summary.tail = percentile_sorted(values, pct);
      break;
    }
  }
  return summary;
}

/// Largest rate in [lo, hi] for which @p meets holds, assuming it is
/// monotone (holds below some threshold, fails above). Probes exactly
/// @p steps midpoints, so the cost is fixed whatever the answer; the
/// result is the highest probed rate that met the predicate, or @p lo
/// (taken as known-good) when none did.
inline double bisect_max_rate(double lo, double hi, int steps,
                              const std::function<bool(double)>& meets) {
  double good = lo;
  double bad = hi;
  for (int step = 0; step < steps; ++step) {
    const double mid = (good + bad) / 2.0;
    if (meets(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  return good;
}

/// FNV-1a over a byte stream; the provenance digest of generated inputs.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
    add_separator();
  }
  void add(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ ^= (value >> shift) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
    add_separator();
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void add_separator() {
    hash_ ^= 0x1fu;
    hash_ *= 0x100000001b3ull;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
