#include "common/stats.h"
#include <algorithm>

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace conscale {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(99);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    all.add(v);
    (i % 3 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
  EXPECT_EQ(b.count(), 2u);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50.0), 0.0);
}

TEST(Percentile, MedianOfOddCount) {
  std::vector<double> v = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 20.0);
}

TEST(Percentile, ClampsOutOfRangePct) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 140.0), 3.0);
}

// Percentile should agree with a fully sorted computation across many
// random vectors (property check).
TEST(Percentile, MatchesSortedReference) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v;
    const std::size_t n = 1 + rng.uniform_index(200);
    for (std::size_t i = 0; i < n; ++i) v.push_back(rng.uniform(0, 1000));
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double pct : {5.0, 25.0, 50.0, 90.0, 99.0}) {
      const double rank = pct / 100.0 * static_cast<double>(n - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const double frac = rank - static_cast<double>(lo);
      const double expected =
          frac == 0.0 || lo + 1 >= n
              ? sorted[lo]
              : sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
      EXPECT_NEAR(percentile(v, pct), expected, 1e-9)
          << "n=" << n << " pct=" << pct;
    }
  }
}

TEST(WelchTTest, IdenticalSamplesNotSignificant) {
  RunningStats a, b;
  for (int i = 0; i < 30; ++i) {
    a.add(10.0 + (i % 3));
    b.add(10.0 + (i % 3));
  }
  const TTestResult result = welch_t_test(a, b);
  EXPECT_FALSE(result.significant);
  EXPECT_NEAR(result.t, 0.0, 1e-9);
}

TEST(WelchTTest, ClearlyDifferentMeansSignificant) {
  Rng rng(3);
  RunningStats a, b;
  for (int i = 0; i < 50; ++i) {
    a.add(rng.normal(100.0, 5.0));
    b.add(rng.normal(50.0, 5.0));
  }
  EXPECT_TRUE(welch_t_test(a, b).significant);
}

TEST(WelchTTest, InsufficientSamplesNotSignificant) {
  RunningStats a, b;
  a.add(1.0);
  b.add(100.0);
  EXPECT_FALSE(welch_t_test(a, b).significant);
}

TEST(WelchTTest, ZeroVarianceEqualMeans) {
  RunningStats a, b;
  for (int i = 0; i < 5; ++i) {
    a.add(7.0);
    b.add(7.0);
  }
  EXPECT_FALSE(welch_t_test(a, b).significant);
}

TEST(WelchTTest, ZeroVarianceDifferentMeans) {
  RunningStats a, b;
  for (int i = 0; i < 5; ++i) {
    a.add(7.0);
    b.add(8.0);
  }
  EXPECT_TRUE(welch_t_test(a, b).significant);
}

TEST(TCritical, DecreasesWithDegreesOfFreedom) {
  EXPECT_GT(t_critical_95(1), t_critical_95(5));
  EXPECT_GT(t_critical_95(5), t_critical_95(30));
  EXPECT_GT(t_critical_95(30), t_critical_95(1000));
  EXPECT_NEAR(t_critical_95(1e9), 1.96, 1e-6);
}

TEST(MovingAverage, EmptyInput) {
  EXPECT_TRUE(moving_average(std::vector<double>{}, 2).empty());
}

TEST(MovingAverage, RadiusZeroIsIdentity) {
  std::vector<double> v = {1.0, 5.0, 2.0};
  EXPECT_EQ(moving_average(v, 0), v);
}

TEST(MovingAverage, SmoothsInterior) {
  std::vector<double> v = {0.0, 3.0, 6.0, 9.0, 12.0};
  const auto out = moving_average(v, 1);
  ASSERT_EQ(out.size(), v.size());
  // Edges keep their values (window shrinks to radius 0).
  EXPECT_DOUBLE_EQ(out.front(), 0.0);
  EXPECT_DOUBLE_EQ(out.back(), 12.0);
  EXPECT_DOUBLE_EQ(out[2], 6.0);
}

TEST(MovingAverage, PreservesConstantSeries) {
  std::vector<double> v(50, 4.2);
  for (double x : moving_average(v, 5)) EXPECT_DOUBLE_EQ(x, 4.2);
}

}  // namespace
}  // namespace conscale
