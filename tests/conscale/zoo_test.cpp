// Behavioral tests for the controller zoo: each controller is driven with
// hand-injected warehouse samples (monitor-free, like controller_test) so
// the control law sees exactly the signal the test dictates.
#include <gtest/gtest.h>

#include <memory>

#include "conscale/framework.h"
#include "conscale/zoo/predictive_controller.h"
#include "conscale/zoo/rt_policies.h"
#include "conscale/zoo/vertical_controller.h"
#include "test_helpers.h"

namespace conscale {
namespace {

using testing::Harness;
using zoo::FuzzyResponseTimePolicy;
using zoo::PiResponseTimePolicy;
using zoo::PredictiveController;
using zoo::VerticalEntitlementController;

/// Monitor-free bundle: samples are injected by hand.
struct ZooFixture : ::testing::Test {
  ZooFixture()
      : scenario(testing::small_scenario()),
        system(sim, scenario.system_config()),
        warehouse(std::make_shared<MetricsWarehouse>()),
        hw(sim, system), sw(sim, system) {
    targets.thread_adapt_tiers = {kAppTier};
  }

  std::string app_tier_name() const { return "Tomcat"; }

  void push_system(SimTime t, double mean_rt, double throughput) {
    SystemSample s;
    s.t = t;
    s.mean_rt = mean_rt;
    s.throughput = throughput;
    warehouse->record_system(s);
  }

  void push_app_tier(SimTime t, double util, std::uint32_t running) {
    TierSample s;
    s.t = t;
    s.avg_cpu_utilization = util;
    s.billed_vms = running;
    s.running_vms = running;
    warehouse->record_tier(app_tier_name(), s);
  }

  Simulation sim;
  ScenarioParams scenario;
  topology::ServiceGraph system;
  std::shared_ptr<MetricsWarehouse> warehouse;
  HardwareAgent hw;
  SoftwareAgent sw;
  SoftAdaptTargets targets;
  Ec2AutoScalingPolicy noop_policy;
};

// ---- PI response-time policy ----------------------------------------------

TEST_F(ZooFixture, PiShrinksConcurrencyWhenRtAboveTarget) {
  PiResponseTimePolicy policy(system, sw, *warehouse, targets,
                              PiPolicyParams{});
  sim.run_until(6.0);  // initial VMs ready: no actuator-lag suppression
  const double initial =
      static_cast<double>(system.tier(kAppTier).thread_pool_size());
  ASSERT_GT(initial, 4.0);
  push_system(7.0, /*mean_rt=*/1.0, /*throughput=*/50.0);  // 4x over target
  policy.adapt(7.0);
  ASSERT_FALSE(sw.events().empty());
  EXPECT_EQ(sw.events().back().action, "threads");
  EXPECT_LT(sw.events().back().value, initial);
}

TEST_F(ZooFixture, PiUpdatesOncePerObservation) {
  PiResponseTimePolicy policy(system, sw, *warehouse, targets,
                              PiPolicyParams{});
  sim.run_until(6.0);
  policy.adapt(6.5);  // no samples yet: no actuation
  EXPECT_TRUE(sw.events().empty());
  push_system(7.0, 1.0, 50.0);
  policy.adapt(7.0);
  const std::size_t after_first = sw.events().size();
  ASSERT_GE(after_first, 1u);
  policy.adapt(7.2);  // same observation: dedup, no second PI step
  EXPECT_EQ(sw.events().size(), after_first);
}

TEST_F(ZooFixture, PiGrowsAllocationBackWhenRtRecovers) {
  PiResponseTimePolicy policy(system, sw, *warehouse, targets,
                              PiPolicyParams{});
  sim.run_until(6.0);
  push_system(7.0, 1.0, 50.0);
  policy.adapt(7.0);
  ASSERT_FALSE(sw.events().empty());
  const double shrunk = sw.events().back().value;
  push_system(8.0, 0.05, 50.0);  // well under the 250 ms target
  policy.adapt(8.0);
  EXPECT_GT(sw.events().back().value, shrunk);
}

TEST_F(ZooFixture, PiHoldsIntegratorWhileTargetsProvision) {
  PiResponseTimePolicy policy(system, sw, *warehouse, targets,
                              PiPolicyParams{});
  // The sim never runs, so the initial VMs are still provisioning: RT over
  // target is actuator lag, not excess concurrency — conditional
  // integration skips the ki term and the allocation holds.
  push_system(1.0, 1.0, 50.0);
  policy.adapt(1.0);
  EXPECT_TRUE(sw.events().empty());
}

TEST_F(ZooFixture, PiWindsUpDuringProvisioningWhenAntiWindupOff) {
  PiPolicyParams params;
  params.conditional_integration = false;
  PiResponseTimePolicy policy(system, sw, *warehouse, targets, params);
  push_system(1.0, 1.0, 50.0);  // same lagged regime as above
  policy.adapt(1.0);
  ASSERT_FALSE(sw.events().empty());  // legacy behavior: shrink anyway
  EXPECT_EQ(sw.events().back().action, "threads");
}

// ---- fuzzy response-time policy -------------------------------------------

TEST_F(ZooFixture, FuzzyStepsDownOnHighRtAndUpOnLowRt) {
  FuzzyResponseTimePolicy policy(system, sw, *warehouse, targets,
                                 FuzzyPolicyParams{});
  const double initial =
      static_cast<double>(system.tier(kAppTier).thread_pool_size());
  push_system(1.0, 1.0, 50.0);
  policy.adapt(1.0);
  ASSERT_FALSE(sw.events().empty());
  const double shrunk = sw.events().back().value;
  EXPECT_LT(shrunk, initial);
  push_system(2.0, 0.05, 50.0);
  policy.adapt(2.0);
  EXPECT_GT(sw.events().back().value, shrunk);
}

TEST_F(ZooFixture, FuzzyHoldsWhenNothingCompletes) {
  FuzzyResponseTimePolicy policy(system, sw, *warehouse, targets,
                                 FuzzyPolicyParams{});
  push_system(1.0, /*mean_rt=*/0.0, /*throughput=*/0.0);  // stalled second
  policy.adapt(1.0);
  EXPECT_TRUE(sw.events().empty());  // no error signal, no actuation
}

// ---- vertical entitlement controller --------------------------------------

TEST_F(ZooFixture, VerticalTrimsEntitlementOnLowUtilizationThenRaises) {
  VerticalControllerParams params;
  params.period = 1.0;
  params.tiers = {kAppTier};
  VerticalEntitlementController controller(sim, system, *warehouse, hw, sw,
                                           noop_policy, ControllerConfig{},
                                           params);
  push_app_tier(0.5, /*util=*/0.2, /*running=*/1);
  sim.run_until(1.5);  // one review on a cold tier
  bool trimmed = false;
  double entitlement = 1.0;
  for (const ScalingEvent& event : hw.events()) {
    if (event.action == "entitlement") {
      trimmed = true;
      entitlement = event.value;
    }
  }
  ASSERT_TRUE(trimmed);
  EXPECT_LT(entitlement, 1.0);
  EXPECT_GE(controller.counters().at("entitlement_trims"), 1u);

  // Demand returns: utilization against the trimmed window reads hot, and
  // the next review hands capacity back.
  push_app_tier(1.6, /*util=*/0.95, /*running=*/1);
  sim.run_until(2.5);
  double raised = 0.0;
  for (const ScalingEvent& event : hw.events()) {
    if (event.action == "entitlement") raised = event.value;
  }
  EXPECT_GT(raised, entitlement);
  EXPECT_GE(controller.counters().at("entitlement_raises"), 1u);
}

TEST_F(ZooFixture, VerticalHoldsInsideDeadband) {
  VerticalControllerParams params;
  params.period = 1.0;
  params.tiers = {kAppTier};
  VerticalEntitlementController controller(sim, system, *warehouse, hw, sw,
                                           noop_policy, ControllerConfig{},
                                           params);
  push_app_tier(0.5, /*util=*/params.target_utilization, /*running=*/1);
  sim.run_until(1.5);  // usage == target: desired entitlement is current
  for (const ScalingEvent& event : hw.events()) {
    EXPECT_NE(event.action, "entitlement");
  }
  EXPECT_GE(controller.counters().at("entitlement_holds"), 1u);
  // The horizontal counters ride along in the same map.
  EXPECT_EQ(controller.counters().at("scale_outs"), 0u);
}

// ---- Holt-Winters predictive controller -----------------------------------

PredictiveControllerParams fast_predictive() {
  PredictiveControllerParams params;
  params.period = 1.0;
  params.horizon = 5.0;
  params.cooldown = 2.0;
  return params;
}

TEST_F(ZooFixture, PredictiveScalesOutAheadOfRisingThroughput) {
  PredictiveController controller(sim, system, *warehouse, hw,
                                  fast_predictive());
  // A steady ramp: +50% completion rate per second under high utilization.
  for (int k = 0; k < 10; ++k) {
    sim.schedule_at(0.5 + k, [this, k] {
      push_system(sim.now(), 0.2, 10.0 + 5.0 * k);
      push_app_tier(sim.now(), 0.7, 1);
    });
  }
  sim.run_until(1.2);  // first step only primes the Holt state
  EXPECT_EQ(controller.counters().at("forecasts"), 0u);
  EXPECT_EQ(controller.counters().at("scale_outs"), 0u);
  sim.run_until(10.0);
  EXPECT_GE(controller.counters().at("forecasts"), 1u);
  EXPECT_GE(controller.counters().at("scale_outs"), 1u);
  EXPECT_GE(system.tier(kAppTier).billed_vms(), 2u);
}

TEST_F(ZooFixture, PredictiveScalesInWhenForecastSitsInsideTargetBand) {
  // Grow the app tier first, then feed a flat, low-utilization forecast.
  ASSERT_TRUE(hw.scale_out(kAppTier));
  sim.run_until(6.0);  // past the 5 s prep delay: 2 VMs running
  ASSERT_EQ(system.tier(kAppTier).running_vms(), 2u);
  PredictiveController controller(sim, system, *warehouse, hw,
                                  fast_predictive());
  for (int k = 0; k < 6; ++k) {
    sim.schedule_at(6.5 + k, [this] {
      push_system(sim.now(), 0.05, 10.0);  // flat: growth ratio ~1
      push_app_tier(sim.now(), 0.1, 2);
    });
  }
  sim.run_until(12.0);
  EXPECT_GE(controller.counters().at("scale_ins"), 1u);
  EXPECT_EQ(system.tier(kAppTier).billed_vms(), 1u);
}

TEST_F(ZooFixture, PredictiveWithPolicyAdaptsOnVmReadyAndScaleIn) {
  testing::SpyPolicy policy;
  PredictiveController controller(sim, system, *warehouse, hw,
                                  fast_predictive(), &policy);
  // Rising throughput under high utilization: one scale-out at t = 2.
  for (int k = 0; k < 2; ++k) {
    sim.schedule_at(0.5 + k, [this, k] {
      push_system(sim.now(), 0.2, 10.0 + 5.0 * k);
      push_app_tier(sim.now(), 0.7, 1);
    });
  }
  sim.run_until(3.0);
  ASSERT_EQ(controller.counters().at("scale_outs"), 1u);
  const SimTime scaled_out = hw.events().back().t;
  // The bootstrap VMs came up at t = 0 without an adapt; the new VM is
  // still provisioning.
  sim.run_until(scaled_out + scenario.vm_prep_delay - 0.5);
  EXPECT_TRUE(policy.calls.empty());
  sim.run_until(scaled_out + scenario.vm_prep_delay + 0.5);
  ASSERT_EQ(policy.calls.size(), 1u);
  EXPECT_DOUBLE_EQ(policy.calls[0], scaled_out + scenario.vm_prep_delay);

  // A flat, cold forecast: scale in, and re-fit the pools at once.
  const SimTime cold = sim.now();
  for (int k = 0; k < 6; ++k) {
    sim.schedule_at(cold + 0.5 + k, [this] {
      push_system(sim.now(), 0.05, 15.0);
      push_app_tier(sim.now(), 0.1, 2);
    });
  }
  sim.run_until(cold + 6.0);
  ASSERT_EQ(controller.counters().at("scale_ins"), 1u);
  ASSERT_EQ(policy.calls.size(), 2u);
  EXPECT_EQ(hw.events().back().action, "scale-in");
  EXPECT_DOUBLE_EQ(policy.calls[1], hw.events().back().t);
  EXPECT_EQ(controller.counters().at("adapts"), 2u);
}

TEST_F(ZooFixture, PredictiveIgnoresQuietSeries) {
  PredictiveController controller(sim, system, *warehouse, hw,
                                  fast_predictive());
  for (int k = 0; k < 5; ++k) {
    sim.schedule_at(0.5 + k, [this] {
      push_system(sim.now(), 0.0, 0.0);  // no traffic at all
      push_app_tier(sim.now(), 0.0, 1);
    });
  }
  sim.run_until(8.0);
  EXPECT_EQ(controller.counters().at("forecasts"), 0u);
  EXPECT_EQ(controller.counters().at("scale_outs"), 0u);
  EXPECT_EQ(controller.counters().at("scale_ins"), 0u);
  EXPECT_EQ(controller.counters().count("adapts"), 0u);  // no policy
}

// ---- registry-level option plumbing ---------------------------------------

TEST(ZooOptions, UnknownZooOptionAbortsLoudly) {
  Harness h;
  FrameworkConfig config;
  config.targets.thread_adapt_tiers = {kAppTier};
  EXPECT_THROW(ScalingFramework(h.sim, h.system, *h.warehouse, "pi(bogus=1)",
                                config),
               std::runtime_error);
  EXPECT_THROW(ScalingFramework(h.sim, h.system, *h.warehouse,
                                "holt-winters(alpha=fast)", config),
               std::runtime_error);
}

TEST(ZooOptions, TunedReferencesBuild) {
  for (const std::string ref :
       {"pi(target_ms=300;kp=10;ki=2)", "fuzzy(step_large=20)",
        "vertical(target_util=0.7;period=2)",
        "holt-winters(alpha=0.5;horizon=30)",
        "hybrid(alpha=0.5;adapt_period=5)"}) {
    SCOPED_TRACE(ref);
    Harness h;
    FrameworkConfig config;
    config.targets.thread_adapt_tiers = {kAppTier};
    ScalingFramework framework(h.sim, h.system, *h.warehouse, ref, config);
    h.sim.run_until(6.0);
    EXPECT_FALSE(framework.controller().counters().empty());
  }
}

}  // namespace
}  // namespace conscale
