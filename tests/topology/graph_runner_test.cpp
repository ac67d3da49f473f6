// Pins the contracts the graph experiments layer rides on:
//
//  * The chain is a graph — run_scaling is run_graph_scaling on
//    make_linear_scenario, with the per-node breakdown on top.
//  * Run determinism — graph runs (fan-out DAG with a shared backend, cache
//    chain with churn, admission shedding, Markov sessions) are
//    bit-identical across serial repeats and jobs=4 thread fan-out.
#include "experiments/graph_runner.h"

#include <gtest/gtest.h>

#include <vector>

#include "experiments/parallel.h"

namespace conscale {
namespace {

ScenarioParams quick_params() {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 16.0;
  p.seed = 4242;
  return p;
}

ScalingRunOptions quick_options() {
  ScalingRunOptions options;
  options.duration = 60.0;
  return options;
}

TEST(LinearScenario, ChainRunIsTheLinearGraphRun) {
  // run_scaling is run_graph_scaling on make_linear_scenario: same result,
  // and no graph feature activates on the chain.
  const ScenarioParams params = quick_params();
  const ScalingRunResult chain =
      run_scaling(params, TraceKind::kBigSpike, "conscale", quick_options());
  const GraphRunResult graph =
      run_graph_scaling(make_linear_scenario(params), TraceKind::kBigSpike,
                        "conscale", quick_options());
  std::string diff;
  EXPECT_TRUE(results_equivalent(chain, graph.run, &diff)) << diff;
  EXPECT_EQ(graph.run.requests_rejected, 0u);
  EXPECT_EQ(graph.admission.admitted, graph.run.requests_issued);
  EXPECT_TRUE(graph.caches.empty());
  // The per-node latency breakdown now covers the chain too.
  ASSERT_EQ(graph.node_latency.size(), 3u);
  for (const auto& node : graph.node_latency) {
    EXPECT_GT(node.completions, 0u) << node.tier;
  }
}

TEST(LinearScenario, GraphIsTheParamsChain) {
  const ScenarioParams params = quick_params();
  const GraphScenario linear = make_linear_scenario(params);
  const topology::ServiceGraphConfig chain = params.system_config();
  ASSERT_EQ(linear.graph.nodes.size(), chain.nodes.size());
  for (std::size_t i = 0; i < chain.nodes.size(); ++i) {
    EXPECT_EQ(linear.graph.nodes[i].tier.name, chain.nodes[i].tier.name);
    EXPECT_EQ(linear.graph.nodes[i].initial_vms, chain.nodes[i].initial_vms);
    EXPECT_EQ(linear.graph.nodes[i].route.size(),
              chain.nodes[i].route.size());
    EXPECT_FALSE(linear.graph.nodes[i].cache.enabled);
  }
  EXPECT_FALSE(linear.graph.admission.enabled);
}

TEST(GraphDeterminism, FanoutSerialRepeatIsBitIdentical) {
  const GraphScenario scenario = make_fanout_scenario(quick_params());
  const GraphRunResult first = run_graph_scaling(
      scenario, TraceKind::kBigSpike, "conscale", quick_options());
  const GraphRunResult second = run_graph_scaling(
      scenario, TraceKind::kBigSpike, "conscale", quick_options());
  std::string diff;
  EXPECT_TRUE(graph_results_equivalent(first, second, &diff)) << diff;
}

TEST(GraphDeterminism, CacheChurnReplaysAcrossJobs4) {
  // The cache RNG stream is the one graph-only randomness consumer; four
  // concurrent copies of the churning-cache run must reproduce the serial
  // baseline exactly.
  const GraphScenario scenario = make_cache_scenario(quick_params());
  const GraphRunResult baseline = run_graph_scaling(
      scenario, TraceKind::kDualPhase, "conscale", quick_options());
  ASSERT_FALSE(baseline.caches.empty());
  EXPECT_GT(baseline.caches[0].second.hits, 0u);

  const std::vector<GraphRunResult> results =
      parallel_map<GraphRunResult>(4, 4, [&scenario](std::size_t) {
        return run_graph_scaling(scenario, TraceKind::kDualPhase, "conscale",
                                 quick_options());
      });
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string diff;
    EXPECT_TRUE(graph_results_equivalent(results[i], baseline, &diff))
        << "jobs=4 copy " << i << ": " << diff;
  }
}

TEST(GraphDeterminism, SheddingRunAccountsEveryRequest) {
  // 2x overload on the fan-out DAG with admission on: rejections must be
  // deterministic, folded into the monitor's per-second series, and every
  // issued request must be served, shed, or still in flight at cutoff.
  ScenarioParams params = quick_params();
  params.max_users *= 2.0;
  GraphScenario scenario = make_fanout_scenario(params);
  scenario.graph.admission.enabled = true;
  scenario.graph.admission.queue_limit = 40;
  scenario.graph.admission.max_queue_age = 2.0;

  const GraphRunResult first = run_graph_scaling(
      scenario, TraceKind::kBigSpike, "ec2", quick_options());
  const GraphRunResult second = run_graph_scaling(
      scenario, TraceKind::kBigSpike, "ec2", quick_options());
  std::string diff;
  EXPECT_TRUE(graph_results_equivalent(first, second, &diff)) << diff;

  EXPECT_GT(first.run.requests_rejected, 0u);
  EXPECT_EQ(first.run.requests_rejected, first.admission.rejected());
  EXPECT_EQ(first.admission.admitted + first.admission.rejected(),
            first.run.requests_issued);
  EXPECT_GE(first.run.requests_issued,
            first.run.requests_completed + first.run.requests_rejected);
  std::uint64_t series_rejections = 0;
  for (const SystemSample& s : first.run.system) {
    series_rejections += s.rejected;
  }
  EXPECT_GT(series_rejections, 0u);
  EXPECT_LE(series_rejections, first.run.requests_rejected);
}

TEST(GraphRunner, SessionWorkloadShedsUnderAdmission) {
  // Markov sessions on the fan-out DAG at 2x overload with admission on: a
  // shed request counts as issued and rejected, its user carries on, and
  // every issued request is served, shed, or still in flight at cutoff.
  ScenarioParams params = quick_params();
  params.max_users *= 2.0;
  GraphScenario scenario = make_fanout_scenario(params);
  scenario.graph.admission.enabled = true;
  scenario.graph.admission.queue_limit = 40;
  scenario.graph.admission.max_queue_age = 2.0;
  ScalingRunOptions options = quick_options();
  options.session_workload = true;

  const GraphRunResult first =
      run_graph_scaling(scenario, TraceKind::kBigSpike, "ec2", options);
  const GraphRunResult second =
      run_graph_scaling(scenario, TraceKind::kBigSpike, "ec2", options);
  std::string diff;
  EXPECT_TRUE(graph_results_equivalent(first, second, &diff)) << diff;

  const ScalingRunResult& run = first.run;
  EXPECT_GT(run.requests_rejected, 0u);
  EXPECT_GT(run.requests_completed, 0u);
  EXPECT_EQ(run.requests_rejected, first.admission.rejected());
  // The graph counts what it admitted; whatever it admitted and has not
  // answered is in flight, at most one request per session user.
  ASSERT_GE(first.admission.admitted, run.requests_completed);
  const std::uint64_t in_flight =
      first.admission.admitted - run.requests_completed;
  EXPECT_EQ(run.requests_issued,
            run.requests_completed + run.requests_rejected + in_flight);
  EXPECT_LE(static_cast<double>(in_flight),
            params.scaled_users(params.max_users));
}

}  // namespace
}  // namespace conscale
