#include "metrics/interval.h"

#include <vector>

#include <gtest/gtest.h>

namespace conscale {
namespace {

struct IntervalFixture : ::testing::Test {
  IntervalFixture() {
    Server::Params p;
    p.name = "s";
    p.thread_pool_size = 16;
    server = std::make_unique<Server>(sim, p);
  }

  void submit(double delay) {
    cls.tiers[0].pure_delay = delay;
    RequestContext ctx;
    ctx.request_class = &cls;
    server->handle(ctx, [] {});
  }

  Simulation sim;
  RequestClass cls{.name = "c", .demand_cv = 0.0,
                   .tiers = std::vector<PhaseDemand>(1)};
  std::unique_ptr<Server> server;
  std::vector<IntervalSample> samples;
};

TEST_F(IntervalFixture, ThroughputCountsCompletionsPerInterval) {
  IntervalAggregator agg(sim, *server, 1.0);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  // 4 requests, each 0.5 s, issued at t=0 (pool is wide): all complete in
  // the first interval.
  for (int i = 0; i < 4; ++i) submit(0.5);
  sim.run_until(2.0);
  ASSERT_GE(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].t_end, 1.0);
  EXPECT_EQ(samples[0].completions, 4u);
  EXPECT_DOUBLE_EQ(samples[0].throughput, 4.0);
  EXPECT_EQ(samples[1].completions, 0u);
}

TEST_F(IntervalFixture, MeanRtOfCompletions) {
  IntervalAggregator agg(sim, *server, 1.0);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  submit(0.2);
  submit(0.6);
  sim.run_until(1.0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].mean_rt, 0.4, 1e-9);
}

TEST_F(IntervalFixture, ConcurrencyIsTimeAveraged) {
  IntervalAggregator agg(sim, *server, 1.0);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  // One request occupying [0, 0.5]: average concurrency over 1 s = 0.5.
  submit(0.5);
  sim.run_until(1.0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].concurrency, 0.5, 1e-9);
}

TEST_F(IntervalFixture, OverlappingRequestsAddConcurrency) {
  IntervalAggregator agg(sim, *server, 1.0);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  // Two requests covering the whole interval -> concurrency 2.
  submit(1.0);
  submit(1.0);
  sim.run_until(1.0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].concurrency, 2.0, 1e-6);
}

TEST_F(IntervalFixture, CarriesInFlightAcrossIntervals) {
  IntervalAggregator agg(sim, *server, 1.0);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  submit(2.5);
  sim.run_until(3.0);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_NEAR(samples[0].concurrency, 1.0, 1e-9);
  EXPECT_NEAR(samples[1].concurrency, 1.0, 1e-9);
  EXPECT_NEAR(samples[2].concurrency, 0.5, 1e-9);
  EXPECT_EQ(samples[2].completions, 1u);
}

TEST_F(IntervalFixture, FiftyMsGranularity) {
  IntervalAggregator agg(sim, *server, 0.050);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  // Run marginally past 1.0 s: accumulated 0.05 steps land the 20th tick a
  // few ulps after 1.0.
  sim.run_until(1.001);
  EXPECT_EQ(samples.size(), 20u);
}

TEST_F(IntervalFixture, StopCeasesEmission) {
  IntervalAggregator agg(sim, *server, 1.0);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  sim.run_until(2.0);
  agg.stop();
  sim.run_until(10.0);
  EXPECT_EQ(samples.size(), 2u);
}

TEST_F(IntervalFixture, UnmatchedDepartureCountsAsUnderflow) {
  IntervalAggregator agg(sim, *server, 1.0);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  // A departure with no prior admission is a wiring bug; it must be counted,
  // not silently absorbed into the concurrency integral.
  agg.note_departed(0.0, 0.1);
  EXPECT_EQ(agg.hook_underflows(), 1u);
  agg.note_aborted(0.0);
  EXPECT_EQ(agg.hook_underflows(), 2u);
  sim.run_until(1.0);
  ASSERT_EQ(samples.size(), 1u);
  // The integral stays at zero concurrency — underflows never drive it
  // negative or offset later admissions.
  EXPECT_NEAR(samples[0].concurrency, 0.0, 1e-12);
  // The bogus departure still registers as a completion (it carried an RT),
  // which is exactly why the underflow counter must flag the imbalance.
  EXPECT_EQ(samples[0].completions, 1u);
}

TEST_F(IntervalFixture, BalancedHooksNeverUnderflow) {
  IntervalAggregator agg(sim, *server, 1.0);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  for (int i = 0; i < 8; ++i) submit(0.25);
  sim.run_until(2.0);
  EXPECT_EQ(agg.hook_underflows(), 0u);
}

TEST_F(IntervalFixture, UnderflowDoesNotMaskLaterAdmissions) {
  IntervalAggregator agg(sim, *server, 1.0);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  // Old behavior decremented only when current_ > 0, so a stray departure
  // after an admission would shave real occupancy. Now: stray *before* any
  // admission is counted and the subsequent request integrates at full
  // weight.
  agg.note_aborted(0.0);
  submit(1.0);
  sim.run_until(1.0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(agg.hook_underflows(), 1u);
  EXPECT_NEAR(samples[0].concurrency, 1.0, 1e-9);
}

TEST_F(IntervalFixture, MidRunAttachmentSeedsInFlight) {
  // Attach the aggregator while a request is already being processed; the
  // integrator must start from the live processing count.
  submit(3.0);
  sim.run_until(1.0);
  IntervalAggregator agg(sim, *server, 1.0);
  agg.start([&](const IntervalSample& s) { samples.push_back(s); });
  sim.run_until(2.0);  // one interval [1, 2]
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].concurrency, 1.0, 1e-9);
}

}  // namespace
}  // namespace conscale
