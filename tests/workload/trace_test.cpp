#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cmath>

namespace conscale {
namespace {

TraceParams default_params() {
  TraceParams p;
  p.duration = 720.0;
  p.max_users = 7500.0;
  p.noise_fraction = 0.0;  // deterministic shape for assertions
  return p;
}

class AllTraceKinds : public ::testing::TestWithParam<TraceKind> {};

TEST_P(AllTraceKinds, PeaksAtMaxUsers) {
  const WorkloadTrace trace = make_trace(GetParam(), default_params());
  EXPECT_NEAR(trace.peak_users(), 7500.0, 1.0);
}

TEST_P(AllTraceKinds, StaysWithinBounds) {
  TraceParams p = default_params();
  p.noise_fraction = 0.05;
  const WorkloadTrace trace = make_trace(GetParam(), p);
  for (double users : trace.samples()) {
    EXPECT_GE(users, 0.0);
    EXPECT_LE(users, p.max_users * 1.05);
  }
}

TEST_P(AllTraceKinds, StartsWellBelowPeak) {
  // Every run begins with a 1/1/1 topology; the traces must not open at
  // full burst (the paper's Fig 9 shapes all ramp in).
  const WorkloadTrace trace = make_trace(GetParam(), default_params());
  EXPECT_LT(trace.samples().front(), 0.55 * trace.peak_users());
}

TEST_P(AllTraceKinds, RespectsFloorFraction) {
  const TraceParams p = default_params();
  const WorkloadTrace trace = make_trace(GetParam(), p);
  for (double users : trace.samples()) {
    EXPECT_GE(users, kTraceFloorFraction * p.max_users * 0.99);
  }
}

TEST_P(AllTraceKinds, DurationMatches) {
  const WorkloadTrace trace = make_trace(GetParam(), default_params());
  EXPECT_NEAR(trace.duration(), 720.0, 1.0);
}

TEST_P(AllTraceKinds, HasMeaningfulVariation) {
  const WorkloadTrace trace = make_trace(GetParam(), default_params());
  double lo = 1e18, hi = 0.0;
  for (double users : trace.samples()) {
    lo = std::min(lo, users);
    hi = std::max(hi, users);
  }
  EXPECT_GT(hi, 2.0 * lo) << "bursty traces should at least double";
}

TEST_P(AllTraceKinds, RunShorterThanOneSampleGetsTwoSamples) {
  TraceParams p = default_params();
  p.noise_fraction = 0.05;
  for (const double duration : {0.0, 0.5}) {
    p.duration = duration;
    const WorkloadTrace trace = make_trace(GetParam(), p);
    ASSERT_EQ(trace.samples().size(), 2u) << "duration " << duration;
    for (double users : trace.samples()) {
      EXPECT_TRUE(std::isfinite(users));
      EXPECT_GE(users, 0.0);
      EXPECT_LE(users, p.max_users * 1.05);
    }
  }
}

TEST_P(AllTraceKinds, DeterministicForSameSeed) {
  const WorkloadTrace a = make_trace(GetParam(), default_params());
  const WorkloadTrace b = make_trace(GetParam(), default_params());
  EXPECT_EQ(a.samples(), b.samples());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllTraceKinds, ::testing::ValuesIn(all_trace_kinds()),
    [](const ::testing::TestParamInfo<TraceKind>& param_info) {
      return to_string(param_info.param);
    });

TEST(WorkloadTrace, InterpolatesBetweenSamples) {
  const WorkloadTrace trace("t", 1.0, {0.0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(trace.users_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(trace.users_at(0.5), 5.0);
  EXPECT_DOUBLE_EQ(trace.users_at(1.5), 15.0);
  EXPECT_DOUBLE_EQ(trace.users_at(2.0), 20.0);
}

TEST(WorkloadTrace, ClampsOutsideRange) {
  const WorkloadTrace trace("t", 1.0, {5.0, 10.0});
  EXPECT_DOUBLE_EQ(trace.users_at(-1.0), 5.0);
  EXPECT_DOUBLE_EQ(trace.users_at(100.0), 10.0);
}

TEST(WorkloadTrace, RejectsDegenerateConstruction) {
  EXPECT_THROW(WorkloadTrace("t", 1.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(WorkloadTrace("t", 0.0, {1.0, 2.0}), std::invalid_argument);
}

TEST(ConstantTrace, IsFlat) {
  const WorkloadTrace trace = make_constant_trace(42.0, 100.0);
  EXPECT_DOUBLE_EQ(trace.users_at(0.0), 42.0);
  EXPECT_DOUBLE_EQ(trace.users_at(50.0), 42.0);
  EXPECT_DOUBLE_EQ(trace.users_at(100.0), 42.0);
}

TEST(RampTrace, TriangleShape) {
  const WorkloadTrace trace = make_ramp_trace(10.0, 110.0, 100.0);
  EXPECT_NEAR(trace.users_at(0.0), 10.0, 1e-9);
  EXPECT_NEAR(trace.users_at(50.0), 110.0, 3.0);
  EXPECT_NEAR(trace.users_at(100.0), 10.0, 1e-9);
  // Monotone on the way up.
  EXPECT_LT(trace.users_at(10.0), trace.users_at(30.0));
  // Monotone on the way down.
  EXPECT_GT(trace.users_at(60.0), trace.users_at(90.0));
}

TEST(TraceKindNames, RoundTripStrings) {
  EXPECT_EQ(to_string(TraceKind::kLargeVariations), "large_variations");
  EXPECT_EQ(to_string(TraceKind::kBigSpike), "big_spike");
  EXPECT_EQ(all_trace_kinds().size(), 6u);
}

}  // namespace
}  // namespace conscale
