#include "workload/open_loop.h"

#include <gtest/gtest.h>

#include "common/stats.h"

namespace conscale {
namespace {

RequestMix trivial_mix() {
  RequestClass c;
  c.name = "only";
  c.weight = 1.0;
  c.tiers.resize(1);
  return RequestMix({c});
}

SubmitFn instant() {
  return [](const RequestContext&, std::function<void(RequestOutcome)> done) {
    done(RequestOutcome::kServed);
  };
}

TEST(OpenLoop, ConstantRateArrivalCount) {
  Simulation sim;
  const WorkloadTrace rate = make_constant_trace(200.0, 100.0);
  const RequestMix mix = trivial_mix();
  OpenLoopGenerator gen(sim, rate, mix, instant(), {});
  sim.run_until(100.0);
  // Poisson(200 * 100): mean 20000, sd ~141.
  EXPECT_NEAR(static_cast<double>(gen.stats().issued), 20000.0, 600.0);
  EXPECT_EQ(gen.stats().issued, gen.stats().completed);
}

TEST(OpenLoop, InterArrivalsAreExponential) {
  Simulation sim;
  const WorkloadTrace rate = make_constant_trace(100.0, 200.0);
  const RequestMix mix = trivial_mix();
  std::vector<double> arrivals;
  OpenLoopGenerator gen(
      sim, rate, mix,
      [&](const RequestContext&, std::function<void(RequestOutcome)> done) {
        arrivals.push_back(sim.now());
        done(RequestOutcome::kServed);
      },
      {});
  sim.run_until(200.0);
  RunningStats gaps;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    gaps.add(arrivals[i] - arrivals[i - 1]);
  }
  // Exponential(rate 100): mean = sd = 0.01.
  EXPECT_NEAR(gaps.mean(), 0.01, 0.001);
  EXPECT_NEAR(gaps.stddev(), 0.01, 0.001);
}

TEST(OpenLoop, TimeVaryingRateFollowsTrace) {
  Simulation sim;
  // 50 req/s for the first half, 400 req/s for the second.
  std::vector<double> samples(201, 50.0);
  for (std::size_t i = 100; i < samples.size(); ++i) samples[i] = 400.0;
  const WorkloadTrace rate("step", 1.0, std::move(samples));
  const RequestMix mix = trivial_mix();
  std::uint64_t first_half = 0, second_half = 0;
  OpenLoopGenerator gen(
      sim, rate, mix,
      [&](const RequestContext&, std::function<void(RequestOutcome)> done) {
        (sim.now() < 100.0 ? first_half : second_half) += 1;
        done(RequestOutcome::kServed);
      },
      {});
  sim.run_until(200.0);
  EXPECT_NEAR(static_cast<double>(first_half), 5000.0, 400.0);
  EXPECT_NEAR(static_cast<double>(second_half), 40000.0, 1200.0);
}

TEST(OpenLoop, StopsAtTraceEnd) {
  Simulation sim;
  const WorkloadTrace rate = make_constant_trace(100.0, 10.0);
  const RequestMix mix = trivial_mix();
  OpenLoopGenerator gen(sim, rate, mix, instant(), {});
  sim.run_until(100.0);
  const auto at_end = gen.stats().issued;
  sim.run_until(200.0);
  EXPECT_EQ(gen.stats().issued, at_end);
  EXPECT_NEAR(static_cast<double>(at_end), 1000.0, 150.0);
}

TEST(OpenLoop, StopCancelsFutureArrivals) {
  Simulation sim;
  const WorkloadTrace rate = make_constant_trace(1000.0, 100.0);
  const RequestMix mix = trivial_mix();
  OpenLoopGenerator gen(sim, rate, mix, instant(), {});
  sim.run_until(1.0);
  gen.stop();
  const auto at_stop = gen.stats().issued;
  sim.run_until(50.0);
  EXPECT_EQ(gen.stats().issued, at_stop);
}

TEST(OpenLoop, DeterministicWithSeed) {
  auto run_once = [] {
    Simulation sim;
    const WorkloadTrace rate = make_constant_trace(500.0, 20.0);
    const RequestMix mix = trivial_mix();
    OpenLoopGenerator::Params p;
    p.seed = 99;
    OpenLoopGenerator gen(sim, rate, mix, instant(), p);
    sim.run_until(20.0);
    return gen.stats().issued;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(OpenLoop, ZeroRateIssuesNothing) {
  Simulation sim;
  const WorkloadTrace rate = make_constant_trace(0.0, 10.0);
  const RequestMix mix = trivial_mix();
  OpenLoopGenerator gen(sim, rate, mix, instant(), {});
  sim.run_until(10.0);
  EXPECT_EQ(gen.stats().issued, 0u);
}

TEST(OpenLoop, ShedRequestsCountAsIssuedAndRejected) {
  // A system that sheds every third request at submit time and serves the
  // rest after 20 ms: a shed request is issued and rejected and records no
  // response time, as in the closed loops.
  Simulation sim;
  const WorkloadTrace rate = make_constant_trace(200.0, 50.0);
  const RequestMix mix = trivial_mix();
  std::uint64_t submitted = 0;
  OpenLoopGenerator gen(
      sim, rate, mix,
      [&](const RequestContext&, std::function<void(RequestOutcome)> done) {
        if (++submitted % 3 == 0) {
          done(RequestOutcome::kRejected);
          return;
        }
        sim.schedule_after(0.02, [done = std::move(done)] {
          done(RequestOutcome::kServed);
        });
      },
      {});
  sim.run_until(60.0);
  const ClientStats& stats = gen.stats();
  EXPECT_EQ(stats.issued, submitted);
  EXPECT_EQ(stats.rejected, submitted / 3);
  EXPECT_EQ(stats.issued, stats.completed + stats.rejected);
  EXPECT_EQ(stats.response_times.total(), stats.completed);
  EXPECT_NEAR(stats.response_times.mean(), 0.02, 1e-3);
}

}  // namespace
}  // namespace conscale
