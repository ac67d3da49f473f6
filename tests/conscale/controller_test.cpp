#include "conscale/controller.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace conscale {
namespace {

using testing::Harness;
using testing::SpyPolicy;

ControllerConfig fast_config() {
  ControllerConfig config;
  config.rule.scale_out_threshold = 0.80;
  config.rule.scale_in_threshold = 0.30;
  config.rule.out_sustain_ticks = 2;
  config.rule.in_sustain_ticks = 5;
  config.rule.cooldown = 3.0;
  config.tick = 1.0;
  return config;
}

// Deliberately monitor-free: CPU samples are injected by hand so the rule
// sees exactly the utilization the test dictates.
struct ControllerFixture : ::testing::Test {
  struct H {
    H() : scenario(testing::small_scenario()),
          system(sim, scenario.system_config()),
          warehouse(std::make_shared<MetricsWarehouse>()) {}
    Simulation sim;
    ScenarioParams scenario;
    topology::ServiceGraph system;
    std::shared_ptr<MetricsWarehouse> warehouse;
  };

  ControllerFixture() : hw(h.sim, h.system), sw(h.sim, h.system) {}

  void make_controller(ControllerConfig config = fast_config()) {
    controller = std::make_unique<DecisionController>(
        h.sim, h.system, *h.warehouse, hw, sw, policy, config);
  }

  /// Injects a tier CPU sample directly (bypassing real load).
  void push_cpu(const std::string& tier, double util) {
    TierSample s;
    s.t = h.sim.now();
    s.avg_cpu_utilization = util;
    h.warehouse->record_tier(tier, s);
  }

  H h;
  HardwareAgent hw;
  SoftwareAgent sw;
  SpyPolicy policy;
  std::unique_ptr<DecisionController> controller;
};

TEST_F(ControllerFixture, ScalesOutOnSustainedHotCpu) {
  make_controller();
  h.sim.run_until(0.1);
  // Keep the Tomcat tier hot; ticks at 1,2 should trigger at tick 2.
  for (int t = 0; t < 3; ++t) {
    push_cpu("Tomcat", 0.95);
    h.sim.run_for(1.0);
  }
  EXPECT_EQ(controller->counters().at("scale_outs"), 1u);
  EXPECT_EQ(h.system.tier(kAppTier).billed_vms(), 2u);
}

TEST_F(ControllerFixture, NoScaleOutBelowThreshold) {
  make_controller();
  h.sim.run_until(0.1);
  for (int t = 0; t < 10; ++t) {
    push_cpu("Tomcat", 0.70);
    push_cpu("MySQL", 0.70);
    h.sim.run_for(1.0);
  }
  EXPECT_EQ(controller->counters().at("scale_outs"), 0u);
}

TEST_F(ControllerFixture, AdaptInvokedWhenVmBecomesReady) {
  make_controller();
  h.sim.run_until(0.1);
  for (int t = 0; t < 3; ++t) {
    push_cpu("MySQL", 0.95);
    h.sim.run_for(1.0);
  }
  ASSERT_EQ(controller->counters().at("scale_outs"), 1u);
  EXPECT_TRUE(policy.calls.empty());  // VM still provisioning
  h.sim.run_for(h.scenario.vm_prep_delay + 1.0);
  EXPECT_EQ(policy.calls.size(), 1u);
  EXPECT_EQ(controller->counters().at("adapts"), 1u);
}

TEST_F(ControllerFixture, ProvisioningBlocksFurtherScaleOut) {
  make_controller();
  h.sim.run_until(0.1);
  for (int t = 0; t < 5; ++t) {
    push_cpu("Tomcat", 0.95);
    h.sim.run_for(1.0);
  }
  // Only one scale-out despite persistent heat: the tier is blocked while
  // the new VM provisions (prep delay is 5 s in the test scenario).
  EXPECT_EQ(controller->counters().at("scale_outs"), 1u);
}

TEST_F(ControllerFixture, ScaleInAfterSustainedColdAndAdapts) {
  make_controller();
  h.sim.run_until(0.1);
  // Grow the DB tier first.
  for (int t = 0; t < 3; ++t) {
    push_cpu("MySQL", 0.95);
    h.sim.run_for(1.0);
  }
  h.sim.run_for(h.scenario.vm_prep_delay + 2.0);
  ASSERT_EQ(h.system.tier(kDbTier).running_vms(), 2u);
  const std::size_t adapts_before = policy.calls.size();
  // Now run cold long enough for slow turn-off (5 ticks + cooldown).
  for (int t = 0; t < 12; ++t) {
    push_cpu("MySQL", 0.05);
    h.sim.run_for(1.0);
  }
  EXPECT_EQ(controller->counters().at("scale_ins"), 1u);
  EXPECT_GT(policy.calls.size(), adapts_before);  // adapt on scale-in too
}

TEST_F(ControllerFixture, PeriodicAdaptWhenConfigured) {
  ControllerConfig config = fast_config();
  config.periodic_adapt = 2.0;
  make_controller(config);
  h.sim.run_until(7.0);
  EXPECT_GE(policy.calls.size(), 3u);  // t = 2, 4, 6
}

TEST_F(ControllerFixture, NoPeriodicAdaptByDefault) {
  make_controller();
  h.sim.run_until(10.0);
  EXPECT_TRUE(policy.calls.empty());
}

}  // namespace
}  // namespace conscale
