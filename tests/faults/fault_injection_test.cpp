// Tests for the deterministic fault-injection subsystem (src/faults):
// FaultPlan parsing, FaultInjector arming against a live ServiceGraph, the
// interaction with metrics/estimation during monitoring dropouts, and the
// determinism guarantees (same plan + seed -> identical runs, empty plan ->
// indistinguishable from a fault-free run).
#include <gtest/gtest.h>

#include "conscale/estimator_service.h"
#include "experiments/parallel.h"
#include "experiments/runner.h"
#include "experiments/scenario.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "metrics/warehouse.h"

namespace conscale {
namespace {

// ---- FaultPlan parsing ----------------------------------------------------

TEST(FaultPlan, ParsesEveryKindAndRoundTrips) {
  const std::string text =
      "# schedule\n"
      "crash t=120 tier=app vm=0 restart=30\n"
      "cpu t=200 dur=60 tier=db vm=all factor=0.4; boot t=0 dur=720 factor=3\n"
      "drop t=240 dur=30\n";
  const FaultPlan plan = FaultPlan::parse(text);
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kVmCrash);
  EXPECT_DOUBLE_EQ(plan.events[0].at, 120.0);
  EXPECT_EQ(plan.events[0].tier, "app");
  EXPECT_DOUBLE_EQ(plan.events[0].restart_delay, 30.0);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kCpuInterference);
  EXPECT_TRUE(plan.events[1].all_vms);
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 0.4);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kBootJitter);
  EXPECT_TRUE(plan.events[2].tier.empty());  // boot with no tier = all tiers
  EXPECT_EQ(plan.events[3].kind, FaultKind::kMonitoringDropout);
  EXPECT_DOUBLE_EQ(plan.events[3].duration, 30.0);

  // Canonical text re-parses to the same plan.
  const FaultPlan again = FaultPlan::parse(plan.to_text());
  ASSERT_EQ(again.events.size(), plan.events.size());
  EXPECT_EQ(again.to_text(), plan.to_text());
}

TEST(FaultPlan, EmptyAndCommentOnlyTextIsEmpty) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("# nothing\n\n  # more\n").empty());
}

TEST(FaultPlan, RejectsMalformedEntries) {
  // Unknown kind, unknown key, missing required fields, bad values: every
  // one must fail loudly instead of silently not injecting.
  EXPECT_THROW(FaultPlan::parse("explode t=1 tier=app"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash t=1 tier=app vmm=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash tier=app vm=0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash t=1"), std::invalid_argument);  // tier
  EXPECT_THROW(FaultPlan::parse("crash t=1 tier=app vm=all"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("cpu t=1 tier=db vm=all factor=0.5"),
               std::invalid_argument);  // dur missing
  EXPECT_THROW(FaultPlan::parse("cpu t=1 dur=10 tier=db vm=all factor=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("boot t=1 factor=3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop t=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop t=-5 dur=10"), std::invalid_argument);
}

// ---- FaultInjector against a live system ----------------------------------

struct InjectorFixture : ::testing::Test {
  InjectorFixture()
      : params(make_params()), mix(params.make_mix()),
        system(sim, params.system_config()) {}

  static ScenarioParams make_params() {
    ScenarioParams p = ScenarioParams::test_scale();
    p.web_init = 1;
    p.app_init = 2;
    p.db_init = 1;
    return p;
  }

  RequestContext ctx() {
    RequestContext c;
    c.id = next_id++;
    c.request_class = &mix.classes().front();
    c.issued_at = sim.now();
    return c;
  }

  FaultInjector make(const std::string& plan_text,
                     MetricsWarehouse* wh = nullptr) {
    return FaultInjector(sim, system, wh, FaultPlan::parse(plan_text));
  }

  Simulation sim;
  ScenarioParams params;
  RequestMix mix;
  topology::ServiceGraph system;
  MetricsWarehouse warehouse;
  std::uint64_t next_id = 1;
};

TEST_F(InjectorFixture, UnresolvableTierFailsAtConstruction) {
  EXPECT_THROW(make("crash t=1 tier=NoSuchTier vm=0"), std::invalid_argument);
  EXPECT_THROW(make("crash t=1 tier=9 vm=0"), std::invalid_argument);
  // Dropout without a metrics layer is invalid too.
  EXPECT_THROW(make("drop t=1 dur=5"), std::invalid_argument);
}

TEST_F(InjectorFixture, TierAliasesResolveToStandardLayout) {
  // web/app/db, exact names, and numeric indices all address the 3 tiers;
  // construction validates them eagerly, so not throwing is the assertion.
  EXPECT_NO_THROW(make("crash t=1 tier=web vm=0"));
  EXPECT_NO_THROW(make("crash t=1 tier=Tomcat vm=0"));
  EXPECT_NO_THROW(make("crash t=1 tier=2 vm=0"));
}

TEST_F(InjectorFixture, ArmIsOneShot) {
  FaultInjector injector = make("boot t=1 dur=5 factor=2");
  injector.arm();
  EXPECT_THROW(injector.arm(), std::logic_error);
}

TEST_F(InjectorFixture, CrashAbortsInFlightAndKeepsLbAwayUntilRestart) {
  FaultInjector injector = make("crash t=1 tier=app vm=0 restart=2");
  injector.arm();
  sim.run_until(0.5);  // bootstrap online
  TierGroup& app = system.tier(1);
  ASSERT_EQ(app.running_vms(), 2u);
  Server* victim = app.running_servers()[0];

  // Saturate the doomed VM so the crash catches work in flight.
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    system.submit(ctx(), [&](RequestOutcome) { ++done; });
  }
  sim.run_until(1.5);  // crash fired at t=1

  EXPECT_EQ(app.failed_vms(), 1u);
  EXPECT_EQ(app.lb().backend_count(), 1u);
  EXPECT_EQ(victim->in_flight(), 0u);  // errored, not leaked
  EXPECT_EQ(app.total_aborted_requests(), victim->aborted_requests());
  EXPECT_EQ(injector.stats().crashes_injected, 1u);
  ASSERT_EQ(injector.windows().size(), 1u);
  EXPECT_DOUBLE_EQ(injector.windows()[0].start, 1.0);
  EXPECT_DOUBLE_EQ(injector.windows()[0].end, 3.0);
  EXPECT_EQ(injector.windows()[0].tier, "Tomcat");

  // While one VM is down, new work only reaches the survivor.
  const std::uint64_t before = victim->completed_requests();
  for (int i = 0; i < 20; ++i) {
    system.submit(ctx(), [&](RequestOutcome) { ++done; });
  }
  sim.run_until(2.9);
  EXPECT_EQ(victim->completed_requests(), before);
  EXPECT_EQ(victim->in_flight(), 0u);

  // After restart + prep delay the VM rejoins the LB.
  sim.run_until(3.0 + params.vm_prep_delay + 1.0);
  EXPECT_EQ(app.running_vms(), 2u);
  EXPECT_EQ(app.lb().backend_count(), 2u);
  EXPECT_EQ(app.failed_vms(), 0u);

  // Every submitted request got a response: completed or errored, no hangs.
  sim.run_until(60.0);
  EXPECT_EQ(done, 60);
}

TEST_F(InjectorFixture, CrashOnEmptyOrdinalCountsAsMissed) {
  FaultInjector injector = make("crash t=1 tier=app vm=7 restart=2");
  injector.arm();
  sim.run_until(2.0);
  EXPECT_EQ(injector.stats().crashes_injected, 0u);
  EXPECT_EQ(injector.stats().crashes_missed, 1u);
  EXPECT_EQ(system.tier(1).failed_vms(), 0u);
}

TEST_F(InjectorFixture, InterferenceWindowDegradesAndRestoresSpeed) {
  FaultInjector injector = make("cpu t=1 dur=2 tier=db vm=all factor=0.25");
  injector.arm();
  sim.run_until(0.5);
  TierGroup& db = system.tier(2);
  const double nominal = db.running_servers()[0]->cpu_speed();
  sim.run_until(1.5);  // inside the window
  for (Server* s : db.running_servers()) {
    EXPECT_DOUBLE_EQ(s->cpu_speed(), nominal * 0.25);
  }
  sim.run_until(3.5);  // window closed at t=3
  for (Server* s : db.running_servers()) {
    EXPECT_DOUBLE_EQ(s->cpu_speed(), nominal);
  }
  EXPECT_EQ(injector.stats().interference_windows, 1u);
}

TEST_F(InjectorFixture, BootJitterOnlyInsideWindow) {
  FaultInjector injector = make("boot t=1 dur=5 tier=app factor=4");
  injector.arm();
  sim.run_until(2.0);
  TierGroup& app = system.tier(1);
  EXPECT_DOUBLE_EQ(app.prep_delay_factor(), 4.0);
  sim.run_until(6.5);  // window closed at t=6
  EXPECT_DOUBLE_EQ(app.prep_delay_factor(), 1.0);
  // Untargeted tiers were never touched.
  EXPECT_DOUBLE_EQ(system.tier(0).prep_delay_factor(), 1.0);
  EXPECT_EQ(injector.stats().boot_jitter_windows, 1u);
}

TEST_F(InjectorFixture, DropoutGatesWarehouseIngestion) {
  FaultInjector injector = make("drop t=1 dur=2", &warehouse);
  injector.arm();
  SystemSample sample;
  sample.t = 0.5;
  warehouse.record_system(sample);
  sim.run_until(1.5);
  EXPECT_FALSE(warehouse.ingestion_enabled());
  sample.t = 1.5;
  warehouse.record_system(sample);  // dropped
  sample.t = 1.6;
  warehouse.record_tier("Tomcat", TierSample{});  // dropped
  sim.run_until(3.5);
  EXPECT_TRUE(warehouse.ingestion_enabled());
  sample.t = 3.5;
  warehouse.record_system(sample);
  EXPECT_EQ(warehouse.system_series().size(), 2u);
  EXPECT_EQ(warehouse.dropped_samples(), 2u);
  EXPECT_EQ(injector.stats().dropout_windows, 1u);
}

// The estimator's dropout guard: a blackout shorter than max_staleness does
// not interrupt estimation; one that pushes the newest sample past the bound
// makes the service hold its cached range instead of re-estimating.
TEST_F(InjectorFixture, EstimatorHoldsCacheOnlyWhenWindowGoesStale) {
  EstimatorServiceParams ep;
  ep.window = 50.0;
  ep.refresh = 5.0;
  ep.max_staleness = 10.0;
  ConcurrencyEstimatorService service(sim, system, warehouse, ep);

  // Feed one synthetic fine-grained sample per second to every app server.
  for (int k = 0; k < 60; ++k) {
    sim.schedule_at(k + 0.5, [this, k] {
      IntervalSample s;
      s.t_end = k + 0.5;
      s.concurrency = 4.0;
      s.throughput = 100.0;
      for (Server* server : system.tier(1).running_servers()) {
        warehouse.record_server(server->name(), s);
      }
    });
  }

  // Two blackouts: 8 s (< max_staleness, must not trip the guard) and 15 s
  // (staleness reaches 10.5 s at the t=50 refresh, must trip it).
  FaultInjector injector = make("drop t=20 dur=8; drop t=40 dur=15",
                                &warehouse);
  injector.arm();

  sim.run_until(35.0);
  EXPECT_EQ(service.stale_skip_count(), 0u);
  sim.run_until(56.0);
  EXPECT_GE(service.stale_skip_count(), 1u);
  const std::uint64_t skips_during = service.stale_skip_count();
  // Ingestion resumed at t=55: fresh samples end the hold.
  sim.run_until(60.0);
  EXPECT_EQ(service.stale_skip_count(), skips_during);
}

// ---- end-to-end determinism ----------------------------------------------

ScenarioParams quick_params() {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 16.0;
  p.seed = 99;
  return p;
}

TEST(FaultRuns, EmptyPlanMatchesFaultFreeRunExactly) {
  ScalingRunOptions plain;
  plain.duration = 45.0;
  ScalingRunOptions with_empty_plan = plain;
  with_empty_plan.faults = FaultPlan::parse("# no events\n");
  const auto a = run_scaling(quick_params(), TraceKind::kDualPhase,
                             "conscale", plain);
  const auto b = run_scaling(quick_params(), TraceKind::kDualPhase,
                             "conscale", with_empty_plan);
  std::string diff;
  EXPECT_TRUE(results_equivalent(a, b, &diff)) << diff;
  EXPECT_TRUE(b.fault_plan_text.empty());
  EXPECT_EQ(b.requests_aborted, 0u);
}

TEST(FaultRuns, CrashRunPopulatesFaultOutcome) {
  ScalingRunOptions options;
  options.duration = 60.0;
  options.faults =
      FaultPlan::parse("crash t=20 tier=app vm=0 restart=10");
  const auto result = run_scaling(quick_params(), TraceKind::kDualPhase,
                                  "conscale", options);
  EXPECT_EQ(result.fault_stats.crashes_injected, 1u);
  EXPECT_FALSE(result.fault_plan_text.empty());
  ASSERT_EQ(result.fault_windows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.fault_windows[0].start, 20.0);
  EXPECT_DOUBLE_EQ(result.fault_windows[0].end, 30.0);
  EXPECT_GT(result.requests_completed, 0u);
}

TEST(FaultRuns, DropoutRunCountsDroppedSamples) {
  ScalingRunOptions options;
  options.duration = 60.0;
  options.faults = FaultPlan::parse("drop t=20 dur=10");
  const auto result = run_scaling(quick_params(), TraceKind::kDualPhase,
                                  "conscale", options);
  EXPECT_EQ(result.fault_stats.dropout_windows, 1u);
  EXPECT_GT(result.dropped_samples, 0u);
}

TEST(FaultRuns, FaultedRunsAreDeterministicUnderParallelFanOut) {
  ScalingRunOptions options;
  options.duration = 45.0;
  options.faults = FaultPlan::parse(
      "crash t=15 tier=app vm=0 restart=8\n"
      "cpu t=25 dur=10 tier=db vm=all factor=0.5\n"
      "drop t=30 dur=5\n");
  const auto run = [&options](std::size_t) {
    return run_scaling(quick_params(), TraceKind::kBigSpike, "conscale",
                       options);
  };
  const auto results = parallel_map<ScalingRunResult>(2, 2, run);
  ASSERT_EQ(results.size(), 2u);
  std::string diff;
  EXPECT_TRUE(results_equivalent(results[0], results[1], &diff)) << diff;
  // Each fanned-out copy equals a serial re-run.
  const ScalingRunResult serial = run(0);
  for (const ScalingRunResult& result : results) {
    EXPECT_TRUE(results_equivalent(result, serial, &diff)) << diff;
  }
  EXPECT_EQ(results[0].fault_stats.crashes_injected, 1u);
}

}  // namespace
}  // namespace conscale
