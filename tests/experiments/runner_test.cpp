#include "experiments/runner.h"

#include <gtest/gtest.h>

namespace conscale {
namespace {

ScenarioParams quick_params() {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 16.0;
  p.seed = 99;
  return p;
}

TEST(RunScaling, PopulatesAllResultFields) {
  ScalingRunOptions options;
  options.duration = 60.0;
  const ScalingRunResult result =
      run_scaling(quick_params(), TraceKind::kDualPhase,
                  "ec2", options);
  EXPECT_EQ(result.framework_name, "EC2-AutoScaling");
  EXPECT_EQ(result.trace_name, "dual_phase");
  EXPECT_FALSE(result.system.empty());
  EXPECT_EQ(result.tiers.size(), 3u);
  EXPECT_GT(result.requests_completed, 0u);
  EXPECT_GT(result.p99_ms, 0.0);
  ASSERT_TRUE(result.warehouse != nullptr);
  EXPECT_FALSE(result.warehouse->server_names().empty());
}

TEST(RunScaling, SystemSeriesCoversDuration) {
  ScalingRunOptions options;
  options.duration = 45.0;
  const ScalingRunResult result =
      run_scaling(quick_params(), TraceKind::kSlowlyVarying,
                  "ec2", options);
  // One 1 s sample per second (within rounding at the edges).
  EXPECT_NEAR(static_cast<double>(result.system.size()), 45.0, 2.0);
}

TEST(RunScaling, RunShorterThanOneTraceSampleCompletes) {
  // Half a trace sample period: the trace is clamped to two samples rather
  // than aborting the run.
  ScalingRunOptions options;
  options.duration = 0.5;
  const ScalingRunResult result =
      run_scaling(quick_params(), TraceKind::kBigSpike, "conscale", options);
  EXPECT_EQ(result.hook_underflows, 0u);
  EXPECT_LE(result.requests_completed, result.requests_issued);
}

TEST(RunScaling, RuntimeDatasetScaleChangesServiceTimes) {
  ScalingRunOptions heavy;
  heavy.duration = 60.0;
  heavy.runtime_dataset_scale = 3.0;
  const auto big = run_scaling(quick_params(), TraceKind::kSlowlyVarying,
                               "ec2", heavy);
  ScalingRunOptions light;
  light.duration = 60.0;
  light.runtime_dataset_scale = 0.5;
  const auto small = run_scaling(quick_params(), TraceKind::kSlowlyVarying,
                                 "ec2", light);
  // A 6x heavier app tier must show clearly higher median latency.
  EXPECT_GT(big.p50_ms, small.p50_ms);
}

TEST(RunScaling, SessionWorkloadDrivesTheSystem) {
  ScalingRunOptions options;
  options.duration = 90.0;
  options.session_workload = true;
  const ScalingRunResult result =
      run_scaling(quick_params(), TraceKind::kBigSpike,
                  "conscale", options);
  EXPECT_GT(result.requests_completed, 100u);
  EXPECT_GT(result.p99_ms, 0.0);
  // Deterministic like the i.i.d. path.
  const ScalingRunResult again =
      run_scaling(quick_params(), TraceKind::kBigSpike,
                  "conscale", options);
  EXPECT_EQ(result.requests_completed, again.requests_completed);
}

TEST(RunSweep, LevelsMapOneToOne) {
  const std::vector<int> levels = {3, 9};
  SweepOptions options;
  options.settle = 2.0;
  options.measure = 6.0;
  ScenarioParams p = quick_params();
  p.work_scale = 1.0;
  const auto points = run_concurrency_sweep(p, kDbTier, levels, options);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].concurrency, 3);
  EXPECT_EQ(points[1].concurrency, 9);
  EXPECT_GT(points[0].throughput, 0.0);
  // More offered concurrency in the ascending stage -> more throughput.
  EXPECT_GT(points[1].throughput, points[0].throughput);
}

TEST(CollectScatter, ProducesSamplesAndScatter) {
  ScenarioParams p = quick_params();
  p.work_scale = 1.0;
  ScatterRunOptions options;
  options.duration = 40.0;
  options.max_users = 60.0;
  const ScatterRunResult result = collect_scatter(p, kDbTier, options);
  EXPECT_FALSE(result.raw_samples.empty());
  EXPECT_GT(result.scatter.total_samples(), 100u);
  EXPECT_GT(result.scatter.max_q(), 5);
}

TEST(MakeFrameworkConfig, TargetsAppAndDbTiers) {
  const FrameworkConfig config = make_framework_config();
  ASSERT_EQ(config.targets.thread_adapt_tiers.size(), 1u);
  EXPECT_EQ(config.targets.thread_adapt_tiers[0], kAppTier);
  ASSERT_EQ(config.targets.conn_adapt.size(), 1u);
  EXPECT_EQ(config.targets.conn_adapt[0].first, kAppTier);
  EXPECT_EQ(config.targets.conn_adapt[0].second, kDbTier);
  EXPECT_GT(config.estimator.window, 0.0);
}

}  // namespace
}  // namespace conscale
