#include "workload/client.h"
#include <vector>

#include <gtest/gtest.h>

namespace conscale {
namespace {

RequestMix trivial_mix() {
  RequestClass c;
  c.name = "only";
  c.weight = 1.0;
  c.tiers.resize(3);
  return RequestMix({c});
}

// An instant-response "system": completes every request immediately.
SubmitFn instant_system() {
  return [](const RequestContext&, std::function<void(RequestOutcome)> done) {
    done(RequestOutcome::kServed);
  };
}

// A system that responds after a fixed delay.
SubmitFn delayed_system(Simulation& sim, double delay) {
  return [&sim, delay](const RequestContext&,
                       std::function<void(RequestOutcome)> done) {
    sim.schedule_after(delay, [done = std::move(done)] {
      done(RequestOutcome::kServed);
    });
  };
}

TEST(ClientPopulation, TracksConstantTrace) {
  Simulation sim;
  const WorkloadTrace trace = make_constant_trace(25.0, 100.0);
  const RequestMix mix = trivial_mix();
  ClientPopulation::Params params;
  params.think_time_mean = 1.0;
  ClientPopulation clients(sim, trace, mix, instant_system(), params);
  sim.run_until(10.0);
  EXPECT_EQ(clients.active_users(), 25u);
}

TEST(ClientPopulation, FollowsRampUpAndDown) {
  Simulation sim;
  const WorkloadTrace trace = make_ramp_trace(0.0, 100.0, 100.0);
  const RequestMix mix = trivial_mix();
  ClientPopulation::Params params;
  params.think_time_mean = 0.05;  // fast cycles so retirement is prompt
  ClientPopulation clients(sim, trace, mix, instant_system(), params);
  sim.run_until(50.0);
  EXPECT_NEAR(static_cast<double>(clients.active_users()), 100.0, 6.0);
  sim.run_until(99.5);
  EXPECT_LT(clients.active_users(), 12u);
}

TEST(ClientPopulation, ZeroThinkTimeKeepsUsersBusy) {
  Simulation sim;
  const WorkloadTrace trace = make_constant_trace(10.0, 50.0);
  const RequestMix mix = trivial_mix();
  ClientPopulation::Params params;
  params.think_time_mean = 0.0;
  // With instant responses and zero think, users loop as fast as the event
  // queue allows — bound the run by time, not events.
  ClientPopulation clients(sim, trace, mix, delayed_system(sim, 0.01),
                           params);
  sim.run_until(10.0);
  // 10 users each completing one request per 10 ms -> ~1000 req/s.
  EXPECT_NEAR(static_cast<double>(clients.stats().completed), 10000.0,
              500.0);
}

TEST(ClientPopulation, CompletionHookObservesResponseTimes) {
  Simulation sim;
  const WorkloadTrace trace = make_constant_trace(5.0, 20.0);
  const RequestMix mix = trivial_mix();
  ClientPopulation::Params params;
  params.think_time_mean = 0.5;
  ClientPopulation clients(sim, trace, mix, delayed_system(sim, 0.2), params);
  int hook_calls = 0;
  clients.set_completion_hook([&](double rt) {
    ++hook_calls;
    EXPECT_NEAR(rt, 0.2, 1e-9);
  });
  sim.run_until(20.0);
  EXPECT_GT(hook_calls, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(hook_calls),
            clients.stats().completed);
}

TEST(ClientPopulation, HistogramMatchesCompletions) {
  Simulation sim;
  const WorkloadTrace trace = make_constant_trace(8.0, 30.0);
  const RequestMix mix = trivial_mix();
  ClientPopulation::Params params;
  params.think_time_mean = 0.3;
  ClientPopulation clients(sim, trace, mix, delayed_system(sim, 0.05),
                           params);
  sim.run_until(30.0);
  EXPECT_EQ(clients.stats().response_times.total(), clients.stats().completed);
  EXPECT_NEAR(clients.stats().response_times.mean(), 0.05, 0.005);
}

TEST(ClientPopulation, IssuedAtLeastCompleted) {
  Simulation sim;
  const WorkloadTrace trace = make_constant_trace(20.0, 10.0);
  const RequestMix mix = trivial_mix();
  ClientPopulation::Params params;
  ClientPopulation clients(sim, trace, mix, delayed_system(sim, 0.5), params);
  sim.run_until(10.0);
  EXPECT_GE(clients.stats().issued, clients.stats().completed);
  EXPECT_LE(clients.stats().issued - clients.stats().completed, 21u);
}

TEST(ClientPopulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim;
    const WorkloadTrace trace = make_constant_trace(15.0, 30.0);
    const RequestMix mix = trivial_mix();
    ClientPopulation::Params params;
    params.seed = 4242;
    ClientPopulation clients(sim, trace, mix, delayed_system(sim, 0.1),
                             params);
    sim.run_until(30.0);
    return clients.stats().completed;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ClientPopulation, PopulationShrinksToZero) {
  Simulation sim;
  // Step down to zero halfway through.
  std::vector<double> samples(101, 50.0);
  for (std::size_t i = 50; i < samples.size(); ++i) samples[i] = 0.0;
  const WorkloadTrace trace("step", 1.0, std::move(samples));
  const RequestMix mix = trivial_mix();
  ClientPopulation::Params params;
  params.think_time_mean = 0.2;
  ClientPopulation clients(sim, trace, mix, instant_system(), params);
  sim.run_until(49.0);
  EXPECT_GT(clients.active_users(), 0u);
  sim.run_until(70.0);
  EXPECT_EQ(clients.active_users(), 0u);
}

}  // namespace
}  // namespace conscale
