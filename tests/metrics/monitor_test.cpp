#include "metrics/monitor.h"

#include <gtest/gtest.h>

#include "experiments/scenario.h"
#include "workload/client.h"

namespace conscale {
namespace {

struct MonitorFixture : ::testing::Test {
  explicit MonitorFixture(std::size_t db_vms = 1)
      : params(make_params(db_vms)), mix(params.make_mix()),
        system(sim, params.system_config()),
        monitor(sim, system, warehouse) {}

  static ScenarioParams make_params(std::size_t db_vms) {
    ScenarioParams p = ScenarioParams::test_scale();
    p.db_init = db_vms;
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

/// Two MySQL replicas, so the node rows have replicas to merge.
struct NodeLatencyFixture : MonitorFixture {
  NodeLatencyFixture() : MonitorFixture(2) {}

  /// Departures of every server of `tier`, counted by the servers.
  std::uint64_t server_completions(std::size_t tier) {
    std::uint64_t total = 0;
    for (Vm* vm : system.tier(tier).all_vms()) {
      total += vm->server().completed_requests();
    }
    return total;
  }
};

TEST_F(NodeLatencyFixture, EveryTierWithTrafficReportsARow) {
  drive(30.0, 20.0);
  const std::vector<NodeLatency> rows = monitor.node_latency();
  ASSERT_EQ(rows.size(), 3u);
  // Node-name order.
  EXPECT_EQ(rows[0].tier, "Apache");
  EXPECT_EQ(rows[1].tier, "MySQL");
  EXPECT_EQ(rows[2].tier, "Tomcat");
  for (const NodeLatency& r : rows) {
    EXPECT_GT(r.completions, 0u) << r.tier;
    EXPECT_GT(r.mean_ms, 0.0) << r.tier;
    EXPECT_LE(r.p50_ms, r.p95_ms) << r.tier;
    EXPECT_LE(r.p95_ms, r.p99_ms) << r.tier;
    EXPECT_LE(r.p99_ms, r.max_ms + 1e-9) << r.tier;
  }
}

TEST_F(NodeLatencyFixture, ReplicasMerge) {
  drive(30.0, 20.0);
  ASSERT_EQ(system.tier(kDbTier).all_vms().size(), 2u);
  for (const NodeLatency& r : monitor.node_latency()) {
    const std::size_t tier = r.tier == "Apache"   ? kWebTier
                             : r.tier == "Tomcat" ? kAppTier
                                                  : kDbTier;
    EXPECT_EQ(r.completions, server_completions(tier)) << r.tier;
  }
}

TEST_F(NodeLatencyFixture, WebTierResponseDominates) {
  // The web tier's in-server RT includes the full downstream chain
  // (thread-per-request), so it must be the largest.
  drive(30.0, 20.0);
  double web = 0.0, db = 0.0;
  for (const NodeLatency& r : monitor.node_latency()) {
    if (r.tier == "Apache") web = r.mean_ms;
    if (r.tier == "MySQL") db = r.mean_ms;
  }
  EXPECT_GT(web, db);
}

TEST_F(NodeLatencyFixture, ScaledOutVmDeparturesCount) {
  drive(30.0, 10.0);
  system.tier(kAppTier).scale_out();
  // Keep driving so the new Tomcat sees traffic.
  sim.run_until(30.0);
  const std::vector<Vm*> tomcats = system.tier(kAppTier).all_vms();
  ASSERT_EQ(tomcats.size(), 2u);
  EXPECT_GT(tomcats[1]->server().completed_requests(), 0u);
  for (const NodeLatency& r : monitor.node_latency()) {
    if (r.tier == "Tomcat") {
      EXPECT_EQ(r.completions, server_completions(kAppTier));
    }
  }
}

TEST_F(NodeLatencyFixture, EmptyWhenNoTraffic) {
  sim.run_until(5.0);
  EXPECT_TRUE(monitor.node_latency().empty());
}

}  // namespace
}  // namespace conscale
