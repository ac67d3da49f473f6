#include "metrics/monitor.h"

#include <gtest/gtest.h>

#include "experiments/scenario.h"
#include "workload/client.h"

namespace conscale {
namespace {

struct MonitorFixture : ::testing::Test {
  MonitorFixture()
      : params(make_params()), mix(params.make_mix()),
        system(sim, params.system_config()),
        monitor(sim, system, warehouse) {}

  static ScenarioParams make_params() {
    ScenarioParams p = ScenarioParams::test_scale();
    p.vm_prep_delay = 2.0;
    return p;
  }

  void drive(double users, double duration) {
    trace = std::make_unique<WorkloadTrace>(
        make_constant_trace(users, duration + 1.0));
    ClientPopulation::Params cp;
    cp.think_time_mean = 0.2;
    clients = std::make_unique<ClientPopulation>(
        sim, *trace, mix,
        [this](const RequestContext& ctx,
               std::function<void(RequestOutcome)> done) {
          system.submit(ctx, std::move(done));
        },
        cp);
    clients->set_completion_hook(
        [this](double rt) { monitor.on_client_completion(rt); });
    sim.run_until(duration);
  }

  Simulation sim;
  ScenarioParams params;
  RequestMix mix;
  topology::ServiceGraph system;
  MetricsWarehouse warehouse;
  MonitoringAgent monitor;
  std::unique_ptr<WorkloadTrace> trace;
  std::unique_ptr<ClientPopulation> clients;
};

TEST_F(MonitorFixture, FineSeriesForEveryBootstrapServer) {
  drive(20.0, 5.0);
  for (const auto* name : {"Apache1", "Tomcat1", "MySQL1"}) {
    const auto& series = warehouse.server_series(name);
    EXPECT_FALSE(series.empty()) << name;
    // Default fine period 50 ms -> ~100 samples in 5 s. (Experiment
    // runners scale the period with work_scale; the raw agent does not.)
    EXPECT_NEAR(static_cast<double>(series.size()), 100.0, 5.0) << name;
  }
}

TEST_F(MonitorFixture, TierSamplesEverySecond) {
  drive(20.0, 10.0);
  const auto& series = warehouse.tier_series("MySQL");
  EXPECT_NEAR(static_cast<double>(series.size()), 10.0, 1.0);
  for (const auto& s : series) {
    EXPECT_EQ(s.running_vms, 1u);
    EXPECT_GE(s.avg_cpu_utilization, 0.0);
    EXPECT_LE(s.avg_cpu_utilization, 1.0);
  }
}

TEST_F(MonitorFixture, SystemSamplesAggregateClientCompletions) {
  drive(20.0, 10.0);
  const auto& series = warehouse.system_series();
  ASSERT_FALSE(series.empty());
  double total = 0.0;
  for (const auto& s : series) {
    total += s.throughput;  // 1 s samples: throughput == completions
    EXPECT_GE(s.max_rt, s.mean_rt);
    EXPECT_EQ(s.total_vms, 3u);
  }
  EXPECT_NEAR(total, static_cast<double>(clients->stats().completed),
              static_cast<double>(clients->stats().completed) * 0.15);
}

TEST_F(MonitorFixture, ScaleOutVmGetsMonitoredAutomatically) {
  drive(20.0, 3.0);
  system.tier(kDbTier).scale_out();
  sim.run_until(10.0);
  EXPECT_FALSE(warehouse.server_series("MySQL2").empty());
}

TEST_F(MonitorFixture, ThroughputSamplesMatchServerCompletions) {
  drive(20.0, 10.0);
  const auto& series = warehouse.server_series("Tomcat1");
  double sampled = 0.0;
  for (const auto& s : series) {
    sampled += static_cast<double>(s.completions);
  }
  const auto actual = static_cast<double>(
      system.tier(kAppTier).running_servers()[0]->completed_requests());
  // The last partial window may not have been emitted yet.
  EXPECT_NEAR(sampled, actual, actual * 0.1 + 20.0);
}

}  // namespace
}  // namespace conscale
