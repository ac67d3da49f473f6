#include "metrics/latency_breakdown.h"

#include <gtest/gtest.h>

#include "experiments/scenario.h"
#include "workload/client.h"

namespace conscale {
namespace {

struct BreakdownFixture : ::testing::Test {
  BreakdownFixture()
      : params(make_params()), mix(params.make_mix()),
        system(sim, params.system_config()), breakdown(system) {}

  static ScenarioParams make_params() {
    ScenarioParams p = ScenarioParams::test_scale();
    p.db_init = 2;
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
    sim.run_until(duration);
  }

  Simulation sim;
  ScenarioParams params;
  RequestMix mix;
  topology::ServiceGraph system;
  LatencyBreakdown breakdown;
  std::unique_ptr<WorkloadTrace> trace;
  std::unique_ptr<ClientPopulation> clients;
};

TEST_F(BreakdownFixture, CoversEveryActiveServer) {
  drive(30.0, 20.0);
  const auto rows = breakdown.snapshot();
  // 1 Apache + 1 Tomcat + 2 MySQL.
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_GT(r.completions, 0u) << r.server;
    EXPECT_GT(r.mean_ms, 0.0) << r.server;
    EXPECT_LE(r.p50_ms, r.p95_ms) << r.server;
    EXPECT_LE(r.p95_ms, r.p99_ms) << r.server;
    EXPECT_LE(r.p99_ms, r.max_ms + 1e-9) << r.server;
  }
  // Sorted by tier then server.
  EXPECT_EQ(rows[0].tier, "Apache");
  EXPECT_EQ(rows[1].tier, "MySQL");
  EXPECT_EQ(rows[2].tier, "MySQL");
  EXPECT_EQ(rows[3].tier, "Tomcat");
}

TEST_F(BreakdownFixture, TierAggregationMergesReplicas) {
  drive(30.0, 20.0);
  const auto tiers = breakdown.by_tier();
  ASSERT_EQ(tiers.size(), 3u);
  std::uint64_t mysql_total = 0;
  for (const auto& r : breakdown.snapshot()) {
    if (r.tier == "MySQL") mysql_total += r.completions;
  }
  for (const auto& r : tiers) {
    if (r.tier == "MySQL") {
      EXPECT_EQ(r.completions, mysql_total);
    }
  }
}

TEST_F(BreakdownFixture, WebTierResponseDominates) {
  // The web tier's in-server RT includes the full downstream chain
  // (thread-per-request), so it must be the largest.
  drive(30.0, 20.0);
  double web = 0.0, db = 0.0;
  for (const auto& r : breakdown.by_tier()) {
    if (r.tier == "Apache") web = r.mean_ms;
    if (r.tier == "MySQL") db = r.mean_ms;
  }
  EXPECT_GT(web, db);
}

TEST_F(BreakdownFixture, LateVmGetsAttached) {
  drive(30.0, 10.0);
  system.tier(kAppTier).scale_out();
  sim.run_until(15.0);
  // Keep driving so the new Tomcat sees traffic.
  sim.run_until(30.0);
  bool saw_second_tomcat = false;
  for (const auto& r : breakdown.snapshot()) {
    saw_second_tomcat |= r.server == "Tomcat2" && r.completions > 0;
  }
  EXPECT_TRUE(saw_second_tomcat);
}

TEST_F(BreakdownFixture, FormatProducesAlignedTable) {
  drive(10.0, 10.0);
  const std::string table = LatencyBreakdown::format(breakdown.snapshot());
  EXPECT_NE(table.find("tier"), std::string::npos);
  EXPECT_NE(table.find("MySQL1"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
}

TEST_F(BreakdownFixture, EmptyWhenNoTraffic) {
  sim.run_until(5.0);
  EXPECT_TRUE(breakdown.snapshot().empty());
  EXPECT_TRUE(breakdown.by_tier().empty());
}

}  // namespace
}  // namespace conscale
