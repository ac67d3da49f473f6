#include "common/histogram.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"

namespace conscale {
namespace {

TEST(LogHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LogHistogram(0.0, 8), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 0), std::invalid_argument);
}

TEST(LogHistogram, EmptyPercentileIsZero) {
  LogHistogram h;
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, SingleValue) {
  LogHistogram h;
  h.add(0.125);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_NEAR(h.percentile(50.0), 0.125, 0.125 * 0.1);
  EXPECT_DOUBLE_EQ(h.max_recorded(), 0.125);
}

// Relative error of percentiles must stay within the sub-bucket resolution
// across several orders of magnitude (latencies from 0.1 ms to minutes).
TEST(LogHistogram, PercentileRelativeErrorBounded) {
  Rng rng(13);
  LogHistogram h(1e-4, 32);
  std::vector<double> exact;
  for (int i = 0; i < 30000; ++i) {
    const double v = rng.lognormal_mean_cv(0.05, 2.0);  // heavy-tailed RTs
    h.add(v);
    exact.push_back(v);
  }
  for (double pct : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double reference = percentile(exact, pct);
    EXPECT_NEAR(h.percentile(pct), reference, reference * 0.08) << pct;
  }
}

TEST(LogHistogram, FractionBelowThreshold) {
  LogHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(0.01 * i);  // 10ms .. 1s
  EXPECT_DOUBLE_EQ(h.fraction_below(10.0), 1.0);
  EXPECT_NEAR(h.fraction_below(0.5), 0.5, 0.04);
  EXPECT_NEAR(h.fraction_below(0.25), 0.25, 0.04);
  EXPECT_DOUBLE_EQ(h.fraction_below(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(LogHistogram().fraction_below(1.0), 0.0);
}

TEST(LogHistogram, PercentileNeverExceedsMax) {
  LogHistogram h;
  h.add(1.0);
  h.add(2.0);
  h.add(3.0);
  EXPECT_LE(h.percentile(100.0), 3.0);
  EXPECT_LE(h.percentile(99.0), 3.0);
}

TEST(LogHistogram, NegativeValuesClampToZeroBucket) {
  LogHistogram h;
  h.add(-1.0);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_GE(h.percentile(50.0), 0.0);
}

TEST(LogHistogram, MergeEqualsUnion) {
  Rng rng(17);
  LogHistogram a, b, all;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.exponential(0.2);
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), all.total());
  EXPECT_DOUBLE_EQ(a.percentile(95.0), all.percentile(95.0));
  EXPECT_DOUBLE_EQ(a.max_recorded(), all.max_recorded());
}

TEST(LogHistogram, MergeLayoutMismatchThrows) {
  LogHistogram a(1e-4, 32);
  LogHistogram b(1e-3, 32);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

}  // namespace
}  // namespace conscale
