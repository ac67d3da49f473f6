// System-wide property tests: conservation, determinism, and monotonicity
// invariants that must hold for any configuration.
#include <gtest/gtest.h>

#include "experiments/runner.h"
#include "workload/client.h"

namespace conscale {
namespace {

ScenarioParams fast_params(std::uint64_t seed = 1) {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 16.0;
  p.seed = seed;
  return p;
}

TEST(Properties, RequestConservationUnderLoad) {
  // issued = completed + in-flight at any stopping point.
  ScenarioParams params = fast_params();
  Simulation sim;
  RequestMix mix = params.make_mix();
  topology::ServiceGraph system(sim, params.system_config());
  const WorkloadTrace trace = make_constant_trace(80.0, 60.0);
  ClientPopulation::Params cp;
  cp.think_time_mean = 0.5;
  ClientPopulation clients(
      sim, trace, mix,
      [&system](const RequestContext& ctx,
                std::function<void(RequestOutcome)> done) {
        system.submit(ctx, std::move(done));
      },
      cp);
  sim.run_until(30.0);
  std::size_t in_flight = 0;
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    for (Vm* vm : system.tier(i).all_vms()) {
      in_flight += vm->server().in_flight();
    }
  }
  // Web-tier in-flight equals client-visible outstanding (each request is in
  // exactly one web-server visit end-to-end).
  std::size_t web_in_flight = 0;
  for (Vm* vm : system.tier(0).all_vms()) {
    web_in_flight += vm->server().in_flight();
  }
  EXPECT_EQ(clients.stats().issued - clients.stats().completed,
            web_in_flight);
}

TEST(Properties, DeterministicScalingRuns) {
  // Bit-for-bit reproducibility: identical seeds give identical results.
  ScalingRunOptions options;
  options.duration = 120.0;
  const auto a = run_scaling(fast_params(33), TraceKind::kBigSpike,
                             "conscale", options);
  const auto b = run_scaling(fast_params(33), TraceKind::kBigSpike,
                             "conscale", options);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events[i].t, b.events[i].t);
    EXPECT_EQ(a.events[i].action, b.events[i].action);
  }
}

TEST(Properties, DifferentSeedsDiverge) {
  ScalingRunOptions options;
  options.duration = 120.0;
  const auto a = run_scaling(fast_params(1), TraceKind::kBigSpike,
                             "ec2", options);
  const auto b = run_scaling(fast_params(2), TraceKind::kBigSpike,
                             "ec2", options);
  EXPECT_NE(a.requests_completed, b.requests_completed);
}

TEST(Properties, MoreHardwareNeverHurtsThroughputMuch) {
  // A 1/2/2 system must complete at least as much as 1/1/1 under the same
  // saturating load (weak monotonicity; small tolerance for stochastic
  // variation).
  auto run_with = [](std::size_t app, std::size_t db) {
    ScenarioParams p = fast_params(77);
    p.app_init = p.app_min = p.app_max = app;
    p.db_init = p.db_min = p.db_max = db;
    p.web_max = 1;
    Simulation sim;
    RequestMix mix = p.make_mix();
    topology::ServiceGraph system(sim, p.system_config());
    const WorkloadTrace trace = make_constant_trace(150.0, 60.0);
    ClientPopulation::Params cp;
    cp.think_time_mean = 0.0;
    ClientPopulation clients(
        sim, trace, mix,
        [&system](const RequestContext& ctx,
                  std::function<void(RequestOutcome)> done) {
          system.submit(ctx, std::move(done));
        },
        cp);
    sim.run_until(60.0);
    return clients.stats().completed;
  };
  const auto small = run_with(1, 1);
  const auto large = run_with(2, 2);
  EXPECT_GE(large, small * 95 / 100);
}

TEST(Properties, SystemTimeSeriesMonotone) {
  ScalingRunOptions options;
  options.duration = 100.0;
  const auto result = run_scaling(fast_params(5), TraceKind::kDualPhase,
                                  "ec2", options);
  SimTime last = -1.0;
  for (const auto& s : result.system) {
    EXPECT_GT(s.t, last);
    last = s.t;
    EXPECT_GE(s.throughput, 0.0);
    EXPECT_GE(s.mean_rt, 0.0);
    EXPECT_LE(s.mean_rt, s.max_rt + 1e-9);
    EXPECT_GE(s.total_vms, 3u);  // never below the 1/1/1 minimum
  }
}

TEST(Properties, TierCpuUtilizationBounded) {
  ScalingRunOptions options;
  options.duration = 100.0;
  const auto result = run_scaling(fast_params(6), TraceKind::kSlowlyVarying,
                                  "conscale", options);
  for (const auto& [tier, series] : result.tiers) {
    for (const auto& s : series) {
      EXPECT_GE(s.avg_cpu_utilization, 0.0) << tier;
      EXPECT_LE(s.avg_cpu_utilization, 1.0 + 1e-9) << tier;
      EXPECT_GE(s.running_vms, 1u) << tier;
      EXPECT_LE(s.billed_vms, 8u) << tier;
    }
  }
}

TEST(Properties, PercentilesAreOrdered) {
  ScalingRunOptions options;
  options.duration = 150.0;
  const auto result = run_scaling(fast_params(7), TraceKind::kQuicklyVarying,
                                  "conscale", options);
  EXPECT_LE(result.p50_ms, result.p95_ms);
  EXPECT_LE(result.p95_ms, result.p99_ms);
  EXPECT_LE(result.p99_ms, result.max_rt_ms + 1e-9);
  EXPECT_GT(result.requests_completed, 0u);
}

}  // namespace
}  // namespace conscale
