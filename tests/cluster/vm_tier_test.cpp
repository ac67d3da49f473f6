#include <gtest/gtest.h>

#include "cluster/tier_group.h"
#include "cluster/vm.h"

namespace conscale {
namespace {

Server::Params server_template() {
  Server::Params p;
  p.cores = 1;
  p.thread_pool_size = 10;
  return p;
}

RequestClass delay_class() {
  RequestClass c{.name = "d", .demand_cv = 0.0,
                 .tiers = std::vector<PhaseDemand>(1)};
  c.tiers[0].pure_delay = 1.0;
  return c;
}

TEST(Vm, ProvisioningDelayBeforeReady) {
  Simulation sim;
  bool ready = false;
  Vm vm(sim, server_template(), 15.0, [&](Vm&) { ready = true; });
  EXPECT_EQ(vm.state(), VmState::kProvisioning);
  EXPECT_TRUE(vm.billed());
  sim.run_until(14.9);
  EXPECT_FALSE(ready);
  sim.run_until(15.1);
  EXPECT_TRUE(ready);
  EXPECT_EQ(vm.state(), VmState::kRunning);
}

TEST(Vm, ZeroDelayStillAsync) {
  Simulation sim;
  bool ready = false;
  Vm vm(sim, server_template(), 0.0, [&](Vm&) { ready = true; });
  EXPECT_FALSE(ready);  // not synchronous in the constructor
  sim.run_until(0.1);
  EXPECT_TRUE(ready);
}

TEST(Vm, DrainWaitsForInFlightWork) {
  Simulation sim;
  Vm vm(sim, server_template(), 0.0, [](Vm&) {});
  sim.run_until(0.1);
  const RequestClass cls = delay_class();
  RequestContext ctx;
  ctx.request_class = &cls;
  vm.server().handle(ctx, [] {});
  bool stopped = false;
  vm.drain([&](Vm&) { stopped = true; });
  EXPECT_EQ(vm.state(), VmState::kDraining);
  EXPECT_TRUE(vm.billed());
  sim.run_until(0.5);
  EXPECT_FALSE(stopped);
  sim.run_until(2.0);
  EXPECT_TRUE(stopped);
  EXPECT_EQ(vm.state(), VmState::kStopped);
  EXPECT_FALSE(vm.billed());
}

TEST(Vm, DrainIdleStopsImmediately) {
  Simulation sim;
  Vm vm(sim, server_template(), 0.0, [](Vm&) {});
  sim.run_until(0.1);
  bool stopped = false;
  vm.drain([&](Vm&) { stopped = true; });
  EXPECT_TRUE(stopped);
}

TEST(CpuMeter, FirstSamplePrimes) {
  CpuMeter meter;
  EXPECT_DOUBLE_EQ(meter.sample(1.0, 0.5, 1), 0.0);
  EXPECT_DOUBLE_EQ(meter.sample(2.0, 1.0, 1), 0.5);
  EXPECT_DOUBLE_EQ(meter.sample(3.0, 2.0, 1), 1.0);
}

TEST(CpuMeter, ClampsToUnitRange) {
  CpuMeter meter;
  meter.sample(0.0, 0.0, 1);
  EXPECT_DOUBLE_EQ(meter.sample(1.0, 5.0, 1), 1.0);
  EXPECT_DOUBLE_EQ(meter.sample(2.0, 4.0, 1), 0.0);  // negative delta clamps
}

TierConfig tier_config(std::size_t min_vms = 1, std::size_t max_vms = 4) {
  TierConfig tc;
  tc.name = "App";
  tc.server_template = server_template();
  tc.vm_prep_delay = 5.0;
  tc.min_vms = min_vms;
  tc.max_vms = max_vms;
  return tc;
}

TEST(TierGroup, BootstrapIsImmediatelyProvisioning) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  tier.bootstrap(2);
  EXPECT_EQ(tier.billed_vms(), 2u);
  sim.run_until(0.1);  // zero prep delay for bootstrap VMs
  EXPECT_EQ(tier.running_vms(), 2u);
  EXPECT_EQ(tier.lb().backend_count(), 2u);
}

TEST(TierGroup, ScaleOutTakesPrepDelay) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  tier.bootstrap(1);
  sim.run_until(1.0);
  EXPECT_TRUE(tier.scale_out());
  EXPECT_EQ(tier.provisioning_vms(), 1u);
  EXPECT_EQ(tier.billed_vms(), 2u);
  EXPECT_EQ(tier.running_vms(), 1u);
  sim.run_until(6.5);  // 1.0 + 5.0 prep
  EXPECT_EQ(tier.running_vms(), 2u);
  EXPECT_EQ(tier.provisioning_vms(), 0u);
}

TEST(TierGroup, ScaleOutRespectsMax) {
  Simulation sim;
  TierGroup tier(sim, tier_config(1, 2));
  tier.bootstrap(2);
  sim.run_until(0.1);
  EXPECT_FALSE(tier.scale_out());
}

TEST(TierGroup, ScaleInRespectsMin) {
  Simulation sim;
  TierGroup tier(sim, tier_config(2, 4));
  tier.bootstrap(2);
  sim.run_until(0.1);
  EXPECT_FALSE(tier.scale_in());
  tier.scale_out();
  sim.run_until(6.0);
  EXPECT_TRUE(tier.scale_in());
}

TEST(TierGroup, ScaleInRemovesNewestAndDeregisters) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  tier.bootstrap(1);
  sim.run_until(0.1);
  tier.scale_out();
  sim.run_until(6.0);
  EXPECT_EQ(tier.lb().backend_count(), 2u);
  EXPECT_TRUE(tier.scale_in());
  EXPECT_EQ(tier.lb().backend_count(), 1u);
  sim.run_until(7.0);
  EXPECT_EQ(tier.billed_vms(), 1u);
  // The survivor is the original VM (LIFO retirement).
  EXPECT_EQ(tier.running_servers().front()->name(), "App1");
}

TEST(TierGroup, VmReadyCallbackFires) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  std::vector<std::string> ready_names;
  tier.set_vm_ready_callback(
      [&](Vm& vm) { ready_names.push_back(vm.name()); });
  tier.bootstrap(1);
  sim.run_until(0.1);
  tier.scale_out();
  sim.run_until(10.0);
  ASSERT_EQ(ready_names.size(), 2u);
  EXPECT_EQ(ready_names[0], "App1");
  EXPECT_EQ(ready_names[1], "App2");
}

TEST(TierGroup, SoftResourcesApplyToAllAndFutureVms) {
  Simulation sim;
  TierConfig tc = tier_config();
  tc.server_template.downstream_pool_size = 40;
  TierGroup tier(sim, tc);
  tier.bootstrap(1);
  sim.run_until(0.1);
  tier.set_thread_pool_size(25);
  tier.set_downstream_pool_size(12);
  EXPECT_EQ(tier.running_servers()[0]->thread_pool_size(), 25u);
  EXPECT_EQ(tier.running_servers()[0]->downstream_pool_size(), 12u);
  // A VM added later inherits the tier-wide setting.
  tier.scale_out();
  sim.run_until(6.0);
  for (Server* s : tier.running_servers()) {
    EXPECT_EQ(s->thread_pool_size(), 25u);
    EXPECT_EQ(s->downstream_pool_size(), 12u);
  }
}

TEST(TierGroup, CpuUtilizationPollAveragesRunningVms) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  tier.bootstrap(2);
  sim.run_until(0.1);
  tier.poll_avg_cpu_utilization();  // prime meters
  // Load one server with CPU work.
  RequestClass cls;
  cls.name = "cpu";
  cls.demand_cv = 0.0;
  cls.tiers.resize(1);
  cls.tiers[0].cpu_pre = 0.9;
  RequestContext ctx;
  ctx.request_class = &cls;
  tier.running_servers()[0]->handle(ctx, [] {});
  sim.run_until(1.1);
  const double util = tier.poll_avg_cpu_utilization();
  // One of two servers ~90% busy for the interval -> average ~45%.
  EXPECT_NEAR(util, 0.45, 0.05);
}

TEST(TierGroup, VerticalScalingAppliesToRunningAndFutureVms) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  tier.bootstrap(1);
  sim.run_until(0.1);
  EXPECT_EQ(tier.cores(), 1);
  EXPECT_TRUE(tier.set_cores(2));
  EXPECT_EQ(tier.cores(), 2);
  EXPECT_EQ(tier.running_servers()[0]->cores(), 2);
  // A VM provisioned after the change boots with the new core count.
  tier.scale_out();
  sim.run_until(6.0);
  for (Server* s : tier.running_servers()) EXPECT_EQ(s->cores(), 2);
}

TEST(TierGroup, VerticalScalingRejectsBadCoreCount) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  tier.bootstrap(1);
  EXPECT_FALSE(tier.set_cores(0));
  EXPECT_EQ(tier.cores(), 1);
}

// ---- Vm state-machine guards + failure lifecycle --------------------------

TEST(VmTransitions, DrainFromStoppedThrows) {
  Simulation sim;
  Vm vm(sim, server_template(), 0.0, [](Vm&) {});
  sim.run_until(0.1);
  vm.drain([](Vm&) {});
  ASSERT_EQ(vm.state(), VmState::kStopped);
  EXPECT_THROW(vm.drain([](Vm&) {}), std::logic_error);
}

TEST(VmTransitions, DrainWhileProvisioningThrows) {
  Simulation sim;
  Vm vm(sim, server_template(), 5.0, [](Vm&) {});
  ASSERT_EQ(vm.state(), VmState::kProvisioning);
  EXPECT_THROW(vm.drain([](Vm&) {}), std::logic_error);
}

TEST(VmTransitions, DrainIsIdempotentWhileDraining) {
  Simulation sim;
  Vm vm(sim, server_template(), 0.0, [](Vm&) {});
  sim.run_until(0.1);
  const RequestClass cls = delay_class();
  RequestContext ctx;
  ctx.request_class = &cls;
  vm.server().handle(ctx, [] {});
  int stops = 0;
  vm.drain([&](Vm&) { ++stops; });
  ASSERT_EQ(vm.state(), VmState::kDraining);
  EXPECT_NO_THROW(vm.drain([&](Vm&) { ++stops; }));
  sim.run_until(2.0);
  EXPECT_EQ(stops, 1);  // the second callback was dropped, not queued
}

TEST(VmTransitions, FailFromTerminalStatesThrows) {
  Simulation sim;
  Vm stopped(sim, server_template(), 0.0, [](Vm&) {});
  sim.run_until(0.1);
  stopped.drain([](Vm&) {});
  ASSERT_EQ(stopped.state(), VmState::kStopped);
  EXPECT_THROW(stopped.fail(1.0, 1.0), std::logic_error);

  Vm failed(sim, server_template(), 0.0, [](Vm&) {});
  sim.run_until(0.2);
  failed.fail(-1.0, 1.0);  // permanent crash
  ASSERT_EQ(failed.state(), VmState::kFailed);
  EXPECT_THROW(failed.fail(1.0, 1.0), std::logic_error);
}

TEST(VmFail, AbortsInFlightAndStopsBilling) {
  Simulation sim;
  Vm vm(sim, server_template(), 0.0, [](Vm&) {});
  sim.run_until(0.1);
  const RequestClass cls = delay_class();
  RequestContext ctx;
  ctx.request_class = &cls;
  bool done = false;
  vm.server().handle(ctx, [&] { done = true; });
  EXPECT_EQ(vm.server().in_flight(), 1u);
  const std::size_t aborted = vm.fail(-1.0, 1.0);
  EXPECT_EQ(aborted, 1u);
  EXPECT_TRUE(done);  // errored immediately, not hung
  EXPECT_EQ(vm.state(), VmState::kFailed);
  EXPECT_TRUE(vm.failed());
  EXPECT_FALSE(vm.billed());
  EXPECT_EQ(vm.server().in_flight(), 0u);
  EXPECT_EQ(vm.server().aborted_requests(), 1u);
  EXPECT_EQ(vm.crash_count(), 1u);
  sim.run_until(10.0);
  EXPECT_EQ(vm.state(), VmState::kFailed);  // permanent: never restarts
}

TEST(VmFail, RestartReentersProvisioningAndRefiresReady) {
  Simulation sim;
  int ready_count = 0;
  Vm vm(sim, server_template(), 0.0, [&](Vm&) { ++ready_count; });
  sim.run_until(0.1);
  ASSERT_EQ(ready_count, 1);
  vm.fail(2.0, 3.0);  // restart at t=2.1, ready at t=5.1
  EXPECT_EQ(vm.state(), VmState::kFailed);
  sim.run_until(2.5);
  EXPECT_EQ(vm.state(), VmState::kProvisioning);
  EXPECT_TRUE(vm.billed());  // billed again once restarting
  sim.run_until(5.5);
  EXPECT_EQ(vm.state(), VmState::kRunning);
  EXPECT_EQ(ready_count, 2);
}

TEST(VmFail, CrashDuringProvisioningCancelsBoot) {
  Simulation sim;
  int ready_count = 0;
  Vm vm(sim, server_template(), 5.0, [&](Vm&) { ++ready_count; });
  sim.run_until(1.0);
  ASSERT_EQ(vm.state(), VmState::kProvisioning);
  vm.fail(-1.0, 5.0);
  sim.run_until(10.0);
  EXPECT_EQ(ready_count, 0);  // the original boot event must not fire
  EXPECT_EQ(vm.state(), VmState::kFailed);
}

TEST(TierGroupFaults, InjectVmCrashDeregistersAndRestarts) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  tier.bootstrap(2);
  sim.run_until(0.1);
  ASSERT_EQ(tier.lb().backend_count(), 2u);
  EXPECT_TRUE(tier.inject_vm_crash(0, 2.0));
  EXPECT_EQ(tier.lb().backend_count(), 1u);
  EXPECT_EQ(tier.running_vms(), 1u);
  EXPECT_EQ(tier.failed_vms(), 1u);
  EXPECT_EQ(tier.billed_vms(), 1u);
  EXPECT_EQ(tier.total_crashes(), 1u);
  // Restart at ~2.1, then the tier's 5 s prep delay -> running by ~7.5.
  sim.run_until(8.0);
  EXPECT_EQ(tier.running_vms(), 2u);
  EXPECT_EQ(tier.lb().backend_count(), 2u);
  EXPECT_EQ(tier.failed_vms(), 0u);
}

TEST(TierGroupFaults, InjectVmCrashWithNoTargetReturnsFalse) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  tier.bootstrap(1);
  sim.run_until(0.1);
  EXPECT_FALSE(tier.inject_vm_crash(5, 1.0));  // only ordinal 0 exists
  EXPECT_EQ(tier.total_crashes(), 0u);
}

TEST(TierGroupFaults, PrepDelayFactorStretchesScaleOut) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  tier.bootstrap(1);
  sim.run_until(0.1);
  tier.set_prep_delay_factor(3.0);
  EXPECT_TRUE(tier.scale_out());  // 5 s * 3 = 15 s prep
  sim.run_until(6.0);
  EXPECT_EQ(tier.running_vms(), 1u);  // nominal delay would have finished
  sim.run_until(16.0);
  EXPECT_EQ(tier.running_vms(), 2u);
}

TEST(TierGroupFaults, CpuSpeedFactorAppliesAndRestores) {
  Simulation sim;
  TierGroup tier(sim, tier_config());
  tier.bootstrap(2);
  sim.run_until(0.1);
  const auto touched = tier.set_vm_cpu_speed_factor(TierGroup::kAllVms, 0.5);
  ASSERT_EQ(touched.size(), 2u);
  for (Server* s : tier.running_servers()) {
    EXPECT_DOUBLE_EQ(s->cpu_speed(), 0.5);
  }
  // A VM created inside the window inherits the degraded speed.
  tier.scale_out();
  sim.run_until(6.0);
  ASSERT_EQ(tier.running_vms(), 3u);
  for (Server* s : tier.running_servers()) {
    EXPECT_DOUBLE_EQ(s->cpu_speed(), 0.5);
  }
  tier.set_vm_cpu_speed_factor(TierGroup::kAllVms, 1.0);
  for (Server* s : tier.running_servers()) {
    EXPECT_DOUBLE_EQ(s->cpu_speed(), 1.0);
  }
}

TEST(ToStringHelpers, VmState) {
  EXPECT_EQ(to_string(VmState::kProvisioning), "provisioning");
  EXPECT_EQ(to_string(VmState::kRunning), "running");
  EXPECT_EQ(to_string(VmState::kDraining), "draining");
  EXPECT_EQ(to_string(VmState::kStopped), "stopped");
  EXPECT_EQ(to_string(VmState::kFailed), "failed");
}

}  // namespace
}  // namespace conscale
