// End-to-end integration tests: compressed versions of the paper's headline
// experiments. These run the full stack (workload -> n-tier system ->
// monitoring -> SCT -> scaling frameworks) at work_scale 8-16 so they stay
// fast, and assert the *shape* results of the paper:
//   - the three-stage concurrency-throughput curve emerges,
//   - Q_lower shifts with cores / dataset / workload type (Fig 3, 7),
//   - ConScale beats hardware-only EC2-AutoScaling on tail latency under a
//     bursty crunch (Fig 10, Table I).
#include <gtest/gtest.h>

#include "experiments/runner.h"
#include "metrics/monitor.h"
#include "workload/client.h"

namespace conscale {
namespace {

ScenarioParams fast_params() {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 8.0;
  p.seed = 20260705;
  return p;
}

// Profiling (scatter/sweep) experiments run at the paper's native scale:
// they are short and cheap, and compressing the demands would require
// stretching the measurement window and the run length by the same factor —
// no savings, only lost resolution.
ScenarioParams profiling_params() {
  ScenarioParams p = fast_params();
  p.work_scale = 1.0;
  return p;
}

TEST(SctIntegration, ThreeStageCurveEmergesForMySql) {
  ScatterRunOptions options;
  options.duration = 180.0;  // the paper's Fig 6 uses a 12-minute scatter
  options.max_users = 160.0;
  options.fixed_app_vms = 4;  // enough upstream capacity to saturate MySQL
  const ScatterRunResult run =
      collect_scatter(profiling_params(), kDbTier, options);
  ASSERT_TRUE(run.range.has_value());
  EXPECT_TRUE(run.range->descending_observed);
  EXPECT_GT(run.range->q_lower, 5);
  EXPECT_LT(run.range->q_lower, 35);
  EXPECT_GE(run.range->q_upper, run.range->q_lower);
  // All three stages present in the classification.
  bool ascending = false, stable = false, descending = false;
  for (const auto& p : run.stages) {
    ascending |= p.stage == SctStage::kAscending;
    stable |= p.stage == SctStage::kStable;
    descending |= p.stage == SctStage::kDescending;
  }
  EXPECT_TRUE(ascending && stable && descending);
}

TEST(SctIntegration, VerticalScalingRaisesQlower) {
  // Fig 7(a) vs 7(d): doubling MySQL cores roughly doubles Q_lower.
  ScatterRunOptions options;
  options.duration = 180.0;
  options.max_users = 260.0;  // 2-core MySQL needs twice the pressure
  options.fixed_app_vms = 10;  // keep the app tier out of the way
  ScenarioParams one_core = profiling_params();
  ScenarioParams two_core = profiling_params();
  two_core.db_cores = 2;
  const auto r1 = collect_scatter(one_core, kDbTier, options);
  const auto r2 = collect_scatter(two_core, kDbTier, options);
  ASSERT_TRUE(r1.range && r2.range);
  EXPECT_GT(r2.range->q_lower, static_cast<int>(1.4 * r1.range->q_lower))
      << "1-core Q_lower=" << r1.range->q_lower
      << " 2-core Q_lower=" << r2.range->q_lower;
}

TEST(SctIntegration, LargerDatasetLowersTomcatQlower) {
  // Fig 7(b) vs 7(e): enlarging the dataset lowers the app-tier optimum.
  ScatterRunOptions options;
  options.duration = 180.0;
  options.max_users = 120.0;
  options.fixed_db_vms = 4;  // Tomcat is the bottleneck (1/1/4)
  ScenarioParams original = profiling_params();
  ScenarioParams enlarged = profiling_params();
  enlarged.mix.dataset_scale = 1.6;
  const auto r1 = collect_scatter(original, kAppTier, options);
  const auto r2 = collect_scatter(enlarged, kAppTier, options);
  ASSERT_TRUE(r1.range && r2.range);
  EXPECT_LT(r2.range->q_lower, r1.range->q_lower)
      << "original Q_lower=" << r1.range->q_lower
      << " enlarged Q_lower=" << r2.range->q_lower;
}

TEST(SctIntegration, IoIntensiveWorkloadLowersMySqlQlower) {
  // Fig 7(c) vs 7(f): CPU-bound -> disk-bound drops the optimum sharply.
  ScatterRunOptions options;
  options.duration = 180.0;
  options.max_users = 140.0;
  options.fixed_app_vms = 4;
  ScenarioParams cpu_bound = profiling_params();
  ScenarioParams io_bound = profiling_params();
  io_bound.mode = WorkloadMode::kReadWriteMix;
  const auto r1 = collect_scatter(cpu_bound, kDbTier, options);
  const auto r2 = collect_scatter(io_bound, kDbTier, options);
  ASSERT_TRUE(r1.range && r2.range);
  EXPECT_LT(2 * r2.range->q_lower, r1.range->q_lower + 4)
      << "cpu Q_lower=" << r1.range->q_lower
      << " io Q_lower=" << r2.range->q_lower;
}

TEST(SctIntegration, PerformanceInterferenceLowersTpMax) {
  // A noisy neighbour stealing ~40% of MySQL's cycles is a "system state"
  // change in the paper's sense: service demand effectively grows, so the
  // peak throughput drops and the SCT model re-detects the curve online.
  ScatterRunOptions options;
  options.duration = 180.0;
  options.max_users = 140.0;
  options.fixed_app_vms = 4;
  ScenarioParams clean = profiling_params();
  const auto r_clean = collect_scatter(clean, kDbTier, options);

  // Same scenario, but the DB CPU only delivers 60% of its cycles.
  ScenarioParams p = profiling_params();
  p.web_init = p.web_min = p.web_max = 1;
  p.app_init = p.app_min = p.app_max = 4;
  p.db_init = p.db_min = p.db_max = 1;
  p.web_threads = 4096;
  p.app_threads = 1024;
  p.app_dbconn = 1024;
  Simulation sim;
  RequestMix mix = p.make_mix();
  topology::ServiceGraph system(sim, p.system_config());
  auto warehouse = std::make_shared<MetricsWarehouse>();
  MonitoringAgent monitor(sim, system, *warehouse);
  sim.run_until(0.01);
  for (Server* s : system.tier(kDbTier).running_servers()) {
    s->set_cpu_speed(0.6);
  }
  ClientPopulation::Params cp;
  cp.think_time_mean = 0.0;
  cp.seed = p.seed ^ 0x1f;
  const WorkloadTrace trace = make_ramp_trace(1.0, 140.0, 180.0);
  ClientPopulation clients(
      sim, trace, mix,
      [&system](const RequestContext& ctx,
                std::function<void(RequestOutcome)> done) {
        system.submit(ctx, std::move(done));
      },
      cp);
  sim.run_until(180.0);
  ScatterSet scatter;
  for (Vm* vm : system.tier(kDbTier).all_vms()) {
    scatter.add_all(warehouse->server_series(vm->name()));
  }
  const auto r_noisy = SctEstimator().estimate(scatter);

  ASSERT_TRUE(r_clean.range && r_noisy);
  EXPECT_LT(r_noisy->tp_max, 0.75 * r_clean.range->tp_max);
  EXPECT_LT(r_noisy->q_lower, r_clean.range->q_lower + 3);
}

TEST(SweepIntegration, ThroughputPeaksAtModerateConcurrency) {
  // Fig 3 shape: throughput rises, peaks, and degrades; RT grows with
  // concurrency throughout.
  const std::vector<int> levels = {2, 5, 10, 20, 40, 80};
  SweepOptions options;
  options.settle = 3.0;
  options.measure = 12.0;
  options.fixed_db_vms = 4;
  const auto points =
      run_concurrency_sweep(profiling_params(), kAppTier, levels, options);
  ASSERT_EQ(points.size(), levels.size());
  // Peak is interior: higher than both ends.
  double peak_tp = 0.0;
  std::size_t peak_idx = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].throughput > peak_tp) {
      peak_tp = points[i].throughput;
      peak_idx = i;
    }
  }
  EXPECT_GT(peak_idx, 0u);
  EXPECT_LT(peak_idx, points.size() - 1);
  EXPECT_GT(peak_tp, 1.15 * points.front().throughput);
  EXPECT_GT(peak_tp, 1.1 * points.back().throughput);
  // Response time grows monotonically (within tolerance) with concurrency.
  EXPECT_LT(points.front().mean_rt_ms, points.back().mean_rt_ms);
}

TEST(ScalingIntegration, ConScaleBeatsEc2OnTailLatency) {
  // The headline result (Fig 10 / Table I) on the Large Variation trace.
  ScenarioParams params = fast_params();
  ScalingRunOptions options;
  options.duration = 400.0;  // the first two crests are enough
  const auto ec2 = run_scaling(params, TraceKind::kLargeVariations,
                               "ec2", options);
  const auto con = run_scaling(params, TraceKind::kLargeVariations,
                               "conscale", options);
  EXPECT_LT(con.p99_ms, 0.7 * ec2.p99_ms)
      << "EC2 p99=" << ec2.p99_ms << "ms ConScale p99=" << con.p99_ms << "ms";
  EXPECT_GE(con.requests_completed, ec2.requests_completed * 95 / 100);
  // Hook accounting must balance: any unmatched departure/abort would have
  // silently skewed the concurrency integral before PR 5 made it countable.
  EXPECT_EQ(ec2.hook_underflows, 0u);
  EXPECT_EQ(con.hook_underflows, 0u);
}

TEST(ScalingIntegration, BothFrameworksScaleHardwareIdentically) {
  // The hardware rule is shared; ConScale's edge is soft resources only.
  ScenarioParams params = fast_params();
  ScalingRunOptions options;
  options.duration = 200.0;
  const auto ec2 = run_scaling(params, TraceKind::kBigSpike,
                               "ec2", options);
  int ec2_hw = 0;
  for (const auto& e : ec2.events) {
    ec2_hw += (e.action == "scale-out" || e.action == "scale-in") ? 1 : 0;
  }
  EXPECT_GT(ec2_hw, 0);
  // And EC2 must never emit soft-resource events.
  for (const auto& e : ec2.events) {
    EXPECT_NE(e.action, "threads");
    EXPECT_NE(e.action, "dbconn");
  }
}

TEST(ScalingIntegration, ConScaleAdaptsSoftResources) {
  ScenarioParams params = fast_params();
  ScalingRunOptions options;
  options.duration = 400.0;
  const auto con = run_scaling(params, TraceKind::kLargeVariations,
                               "conscale", options);
  bool adapted = false;
  for (const auto& e : con.events) {
    adapted |= e.action == "threads" || e.action == "dbconn";
  }
  EXPECT_TRUE(adapted);
  EXPECT_FALSE(con.sct_history.empty());
}

TEST(ScalingIntegration, DcmWithStaleProfileUnderperformsConScale) {
  // Fig 11: DCM trained on the original dataset, run on a reduced one.
  ScenarioParams params = fast_params();
  // Milder compression for this test: the online estimator's sample budget
  // per window shrinks with work_scale, and Fig 11 turns on estimate quality.
  params.work_scale = 4.0;
  // Lighter requests (smaller dataset) -> more users for the same pressure.
  params.max_users = 7500.0 / 0.55;
  const DcmProfile profile = train_dcm_profile(params);
  ASSERT_FALSE(profile.tier_optimal_concurrency.empty());

  ScalingRunOptions dcm_options;
  dcm_options.duration = 720.0;
  dcm_options.runtime_dataset_scale = 0.4;  // far smaller dataset than trained
  FrameworkConfig config = make_framework_config();
  config.dcm_profile = profile;
  dcm_options.framework_config = config;
  const auto dcm = run_scaling(params, TraceKind::kLargeVariations,
                               "dcm", dcm_options);

  ScalingRunOptions con_options = dcm_options;
  con_options.framework_config = make_framework_config();
  const auto con = run_scaling(params, TraceKind::kLargeVariations,
                               "conscale", con_options);
  // At this compressed scale the headline latency gap of Fig 11 is noise-
  // level; the bench (bench_fig11_dcm_vs_conscale, native scale) checks the
  // magnitude. Here we assert the *mechanism*: ConScale must not be
  // meaningfully worse, and its online estimate must adapt the Tomcat
  // allocation away from DCM's stale trained value (the paper's 20 -> 30).
  EXPECT_LT(con.p99_ms, dcm.p99_ms)
      << "DCM p99=" << dcm.p99_ms << "ms ConScale p99=" << con.p99_ms << "ms";
  EXPECT_GT(con.requests_completed, dcm.requests_completed)
      << "online adaptation should also win on throughput (Fig 11)";
  // ConScale must have acted on *live* evidence: at least one soft-resource
  // adaptation driven by an online estimate (DCM's values, in contrast, are
  // frozen at training time no matter what the dataset became).
  bool adapted = false;
  for (const auto& e : con.events) {
    adapted |= e.action == "threads" || e.action == "dbconn";
  }
  EXPECT_TRUE(adapted);
  EXPECT_FALSE(con.sct_history.empty());
}

}  // namespace
}  // namespace conscale
