// Unit tests of the benchmark's own statistics: the percentile summary
// and the svc.max_rate bisection.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(Summary, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(summarize(one_to(5)).median, 3.0);
  EXPECT_DOUBLE_EQ(summarize(one_to(4)).median, 2.5);
  EXPECT_EQ(summarize(one_to(4)).count, 4u);
}

TEST(Summary, NoTailBelowOneHundredSamples) {
  const Summary summary = summarize(one_to(99));
  EXPECT_EQ(summary.tail_pct, 0.0);
  EXPECT_EQ(summary.count, 99u);
}

TEST(Summary, TailIsHighestPercentileWithTenSamplesBeyond) {
  // 100 samples: p90 = 90 leaves exactly ten beyond; p99 leaves one.
  Summary summary = summarize(one_to(100));
  EXPECT_EQ(summary.tail_pct, 90.0);
  EXPECT_DOUBLE_EQ(summary.tail, 90.0);
  // 1000 samples: p99 = 990 leaves ten beyond; p99.9 leaves one.
  summary = summarize(one_to(1000));
  EXPECT_EQ(summary.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(summary.tail, 990.0);
  // 10000 samples reach p99.9.
  summary = summarize(one_to(10000));
  EXPECT_EQ(summary.tail_pct, 99.9);
  EXPECT_DOUBLE_EQ(summary.tail, 9990.0);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile(one_to(10), 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(10), 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 99), 0.0);
}

TEST(Percentile, RefusedSubmitsSortLast) {
  std::vector<double> latencies = one_to(99);
  latencies.push_back(INFINITY);
  EXPECT_TRUE(std::isinf(percentile(latencies, 100)));
  EXPECT_DOUBLE_EQ(percentile(latencies, 99), 99.0);
}

/// Synthetic M/M/1-style p99 curve: latency 1/(capacity - rate) grows
/// without bound as the rate approaches capacity.
TEST(Bisection, FindsRateWhereLatencyCurveCrossesLimit) {
  const double capacity = 2000;
  const double limit = 0.05;
  int probes = 0;
  const double found = bisect_max_rate(1000, 4000, 12, [&](double rate) {
    ++probes;
    return rate < capacity && 4.6 / (capacity - rate) <= limit;
  });
  const double exact = capacity - 4.6 / limit;  // 1908
  EXPECT_EQ(probes, 12);
  EXPECT_LE(found, exact);
  EXPECT_GT(found, exact - 3000.0 / 4096.0 - 1e-9);
}

TEST(Bisection, ReturnsLowerBoundWhenNothingMeets) {
  EXPECT_DOUBLE_EQ(bisect_max_rate(500, 2000, 6, [](double) { return false; }), 500.0);
}

TEST(Bisection, ApproachesUpperBoundWhenEverythingMeets) {
  const double found = bisect_max_rate(500, 2000, 6, [](double) { return true; });
  EXPECT_LT(found, 2000.0);
  EXPECT_GT(found, 2000.0 - 1500.0 / 64.0 - 1e-9);
}

TEST(Digest, DependsOnEveryInputAndItsBoundaries) {
  Digest a;
  a.add("ab");
  a.add("c");
  Digest b;
  b.add("a");
  b.add("bc");
  Digest c;
  c.add("ab");
  c.add("c");
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
}

}  // namespace
}  // namespace perfbench
