// Byte-identity contract of the laned runners (DESIGN.md §6.6): lanes is a
// thread count, not a model parameter, so lanes=1 and lanes=4 must
// produce bit-identical results — equivalent in-memory payloads AND
// byte-identical rendered CSV/JSON artifacts — for every registry
// controller, on both the linear chain and the fan-out DAG. The runs fan
// out through parallel_map with jobs=4, so laned engines (each with their
// own worker threads) also run concurrently with each other, the way the
// CI smoke drives them.
#include "experiments/laned_runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/analytic.h"
#include "experiments/json_export.h"
#include "experiments/parallel.h"
#include "experiments/report.h"

namespace conscale {
namespace {

const std::vector<std::string> kAllControllers = {
    "ec2", "dcm",      "conscale",     "pi",
    "fuzzy", "vertical", "holt-winters", "hybrid"};

ScenarioParams quick_params() {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 16.0;
  p.seed = 4242;
  return p;
}

LanedRunOptions laned_options(const ScenarioParams& params,
                              std::size_t lanes) {
  LanedRunOptions options;
  options.base.duration = 60.0;
  // The chain's default config carries no DCM profile; supply the analytic
  // one so "dcm" assembles (identical on both sides of the comparison).
  FrameworkConfig config = make_framework_config();
  config.dcm_profile = train_dcm_profile_analytical(params);
  options.base.framework_config = config;
  options.lanes = lanes;
  return options;
}

std::string slurp_and_remove(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

/// CSV + JSON bytes of a chain result, exactly as reports render them.
std::string render_chain(const std::string& stem,
                         const ScalingRunResult& result) {
  const std::string base = ::testing::TempDir() + "/" + stem;
  dump_system_csv(base + ".csv", result);
  JsonExportOptions json_options;
  json_options.include_counters = true;
  export_run_json(base + ".json", result, json_options);
  return slurp_and_remove(base + ".csv") + slurp_and_remove(base + ".json");
}

/// CSV (system + per-node latency) + JSON bytes of a graph result.
std::string render_graph(const std::string& stem,
                         const GraphRunResult& result) {
  const std::string base = ::testing::TempDir() + "/" + stem;
  dump_graph_system_csv(base + ".csv", result);
  dump_node_latency_csv(base + "_nodes.csv", result);
  JsonExportOptions json_options;
  json_options.include_counters = true;
  export_run_json(base + ".json", result.run, json_options);
  return slurp_and_remove(base + ".csv") +
         slurp_and_remove(base + "_nodes.csv") +
         slurp_and_remove(base + ".json");
}

TEST(LaneDeterminism, ChainLanes4MatchesLanes1ForEveryController) {
  const ScenarioParams params = quick_params();
  // One cell per (controller, lane count); jobs=4 runs them concurrently.
  struct Cell {
    std::string framework;
    std::size_t lanes;
  };
  std::vector<Cell> cells;
  for (const std::string& framework : kAllControllers) {
    cells.push_back({framework, 1});
    cells.push_back({framework, 4});
  }
  const auto results = parallel_map<ScalingRunResult>(
      cells.size(), 4, [&](std::size_t i) {
        return run_scaling_laned(params, TraceKind::kBigSpike,
                                 cells[i].framework,
                                 laned_options(params, cells[i].lanes));
      });
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    SCOPED_TRACE(cells[i].framework);
    std::string diff;
    EXPECT_TRUE(results_equivalent(results[i], results[i + 1], &diff))
        << diff;
    EXPECT_EQ(render_chain("lane_chain_1_" + cells[i].framework, results[i]),
              render_chain("lane_chain_4_" + cells[i].framework,
                           results[i + 1]));
    EXPECT_GT(results[i].requests_completed, 0u);
  }
}

TEST(LaneDeterminism, GraphLanes4MatchesLanes1ForEveryController) {
  const GraphScenario scenario = make_fanout_scenario(quick_params());
  struct Cell {
    std::string framework;
    std::size_t lanes;
  };
  std::vector<Cell> cells;
  for (const std::string& framework : kAllControllers) {
    cells.push_back({framework, 1});
    cells.push_back({framework, 4});
  }
  LanedRunOptions base_options;
  base_options.base.duration = 60.0;
  const auto results = parallel_map<GraphRunResult>(
      cells.size(), 4, [&](std::size_t i) {
        LanedRunOptions options = base_options;
        options.lanes = cells[i].lanes;
        return run_graph_scaling_laned(scenario, TraceKind::kBigSpike,
                                       cells[i].framework, options);
      });
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    SCOPED_TRACE(cells[i].framework);
    std::string diff;
    EXPECT_TRUE(
        graph_results_equivalent(results[i], results[i + 1], &diff))
        << diff;
    EXPECT_EQ(render_graph("lane_dag_1_" + cells[i].framework, results[i]),
              render_graph("lane_dag_4_" + cells[i].framework,
                           results[i + 1]));
    EXPECT_GT(results[i].run.requests_completed, 0u);
  }
}

// ---- tier-laned placements (ISSUE 10) -------------------------------------

/// The two LAN hops the tier-laned sweeps cover: 10 ms (the default, a 5x
/// skew against the 50 ms client network) and 50 ms (uniform channels).
constexpr SimDuration kLanDelays[] = {0.010, 0.05};

std::string lan_delay_label(SimDuration lan_delay) {
  return lan_delay == 0.05 ? " (lan_delay 50 ms)" : " (lan_delay 10 ms)";
}

LanedRunOptions tier_laned_options(const ScenarioParams& params,
                                   std::size_t tier_lanes,
                                   SimDuration lan_delay = 0.010) {
  LanedRunOptions options;
  options.base.duration = 60.0;
  FrameworkConfig config = make_framework_config();
  config.dcm_profile = train_dcm_profile_analytical(params);
  options.base.framework_config = config;
  options.tier_lanes = tier_lanes;
  options.lan_delay = lan_delay;
  return options;
}

TEST(TierLaneDeterminism, ChainThreads4MatchesThreads1BothLanDelays) {
  const ScenarioParams params = quick_params();
  struct Cell {
    std::string framework;
    SimDuration lan_delay;
    std::size_t threads;
  };
  std::vector<Cell> cells;
  for (const std::string& framework : kAllControllers) {
    for (const SimDuration lan_delay : kLanDelays) {
      cells.push_back({framework, lan_delay, 1});
      cells.push_back({framework, lan_delay, 4});
    }
  }
  const auto results = parallel_map<ScalingRunResult>(
      cells.size(), 4, [&](std::size_t i) {
        return run_scaling_laned(
            params, TraceKind::kBigSpike, cells[i].framework,
            tier_laned_options(params, cells[i].threads, cells[i].lan_delay));
      });
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    SCOPED_TRACE(cells[i].framework + lan_delay_label(cells[i].lan_delay));
    std::string diff;
    EXPECT_TRUE(results_equivalent(results[i], results[i + 1], &diff))
        << diff;
    EXPECT_EQ(
        render_chain("tier_chain_1_" + std::to_string(i), results[i]),
        render_chain("tier_chain_4_" + std::to_string(i), results[i + 1]));
    EXPECT_GT(results[i].requests_completed, 0u);
  }
}

TEST(TierLaneDeterminism, GraphThreads4MatchesThreads1BothLanDelays) {
  const GraphScenario scenario = make_fanout_scenario(quick_params());
  struct Cell {
    std::string framework;
    SimDuration lan_delay;
    std::size_t threads;
  };
  std::vector<Cell> cells;
  for (const std::string& framework : kAllControllers) {
    for (const SimDuration lan_delay : kLanDelays) {
      cells.push_back({framework, lan_delay, 1});
      cells.push_back({framework, lan_delay, 4});
    }
  }
  const auto results = parallel_map<GraphRunResult>(
      cells.size(), 4, [&](std::size_t i) {
        LanedRunOptions options;
        options.base.duration = 60.0;
        options.tier_lanes = cells[i].threads;
        options.lan_delay = cells[i].lan_delay;
        return run_graph_scaling_laned(scenario, TraceKind::kBigSpike,
                                       cells[i].framework, options);
      });
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    SCOPED_TRACE(cells[i].framework + lan_delay_label(cells[i].lan_delay));
    std::string diff;
    EXPECT_TRUE(
        graph_results_equivalent(results[i], results[i + 1], &diff))
        << diff;
    EXPECT_EQ(
        render_graph("tier_dag_1_" + std::to_string(i), results[i]),
        render_graph("tier_dag_4_" + std::to_string(i), results[i + 1]));
    EXPECT_GT(results[i].run.requests_completed, 0u);
  }
}

TEST(TierLaneDeterminism, TierLanedRunReportsPlan) {
  const ScenarioParams params = quick_params();
  LanedRunOptions options = tier_laned_options(params, 4);
  LaneRunInfo info;
  const ScalingRunResult result = run_scaling_laned(
      params, TraceKind::kBigSpike, "conscale", options, &info);
  EXPECT_GT(result.requests_completed, 0u);
  // The 10 ms LAN hop is the narrowest channel, so it is the window.
  EXPECT_DOUBLE_EQ(info.lookahead, options.lan_delay);
  EXPECT_EQ(info.threads, 4u);
  // control + one cell per tier + one per shard.
  EXPECT_EQ(info.lanes, 1u + 3u + info.shards);
  EXPECT_FALSE(info.placement.empty());
  EXPECT_GT(info.stats.serial_rounds, 0u);

  // The fan-out graph: control + one cell per node + one per shard, and the
  // placement names every node.
  const GraphScenario fanout = make_fanout_scenario(params);
  options.base.framework_config.reset();
  LaneRunInfo graph_info;
  const GraphRunResult graph = run_graph_scaling_laned(
      fanout, TraceKind::kBigSpike, "conscale", options, &graph_info);
  EXPECT_GT(graph.run.requests_completed, 0u);
  ASSERT_EQ(fanout.graph.nodes.size(), 4u);
  EXPECT_EQ(graph_info.lanes, 1u + 4u + graph_info.shards);
  for (const auto& node : fanout.graph.nodes) {
    EXPECT_NE(graph_info.placement.find("[" + node.tier.name + "]"),
              std::string::npos)
        << graph_info.placement;
  }
}

TEST(TierLaneDeterminism, FaultPlansComposeWithTierLanes) {
  // The injector lives on the control cell, so it acts only at serialized
  // control instants — the guarantee controllers rely on to mutate remote
  // tiers. A crash/cpu/boot/drop plan on the cut chain and fan-out DAG must
  // reproduce byte for byte at 1 and 4 threads at both LAN delays.
  const ScenarioParams params = quick_params();
  const GraphScenario fanout = make_fanout_scenario(params);
  struct Cell {
    bool graph;
    SimDuration lan_delay;
    std::size_t threads;
  };
  std::vector<Cell> cells;
  for (const bool graph : {false, true}) {
    for (const SimDuration lan_delay : kLanDelays) {
      cells.push_back({graph, lan_delay, 1});
      cells.push_back({graph, lan_delay, 4});
    }
  }
  const auto results = parallel_map<GraphRunResult>(
      cells.size(), 4, [&](std::size_t i) {
        LanedRunOptions options =
            tier_laned_options(params, cells[i].threads, cells[i].lan_delay);
        options.base.faults = FaultPlan::parse(
            "crash t=20 tier=app vm=0 restart=10; "
            "cpu t=15 dur=20 tier=db vm=all factor=0.5; "
            "boot t=0 dur=60 tier=app factor=3; drop t=30 dur=5");
        if (cells[i].graph) {
          options.base.framework_config.reset();
          return run_graph_scaling_laned(fanout, TraceKind::kBigSpike, "ec2",
                                         options);
        }
        GraphRunResult chain;
        chain.run = run_scaling_laned(params, TraceKind::kBigSpike, "ec2",
                                      options);
        return chain;
      });
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    SCOPED_TRACE(std::to_string(i) + (cells[i].graph ? " fanout" : " chain") +
                 lan_delay_label(cells[i].lan_delay));
    std::string diff;
    EXPECT_TRUE(graph_results_equivalent(results[i], results[i + 1], &diff))
        << diff;
    EXPECT_EQ(render_graph("tier_fault_1_" + std::to_string(i), results[i]),
              render_graph("tier_fault_4_" + std::to_string(i),
                           results[i + 1]));
    const ScalingRunResult& run = results[i].run;
    EXPECT_EQ(run.fault_stats.crashes_injected, 1u);
    EXPECT_GT(run.requests_aborted, 0u);
    EXPECT_GT(run.fault_stats.dropout_windows, 0u);
    EXPECT_GT(run.requests_completed, 0u);
  }
}

TEST(TierLaneDeterminism, LanDelayIsAModelParameter) {
  // The LAN hop is explicit model latency: widening it must slow client
  // response times (two hops per tier edge, round trip), not just reshape
  // the schedule.
  const ScenarioParams params = quick_params();
  LanedRunOptions near = tier_laned_options(params, 2);
  LanedRunOptions far = near;
  far.lan_delay = 0.050;
  LaneRunInfo near_info;
  LaneRunInfo far_info;
  const ScalingRunResult near_run = run_scaling_laned(
      params, TraceKind::kBigSpike, "ec2", near, &near_info);
  const ScalingRunResult far_run = run_scaling_laned(
      params, TraceKind::kBigSpike, "ec2", far, &far_info);
  // Two extra LAN hops of 40 ms each way on every app+db leg: the mean
  // must rise by a clearly-visible margin.
  EXPECT_GT(far_run.mean_rt_ms, near_run.mean_rt_ms + 50.0);
  // The engine's window is the narrowest hop it is given.
  EXPECT_DOUBLE_EQ(near_info.lookahead, 0.010);
  EXPECT_DOUBLE_EQ(far_info.lookahead, 0.050);
}

TEST(LaneDeterminism, ZeroShardsAreRejected) {
  const ScenarioParams params = quick_params();
  LanedRunOptions options = laned_options(params, 2);
  options.shards = 0;
  EXPECT_THROW(run_scaling_laned(params, TraceKind::kBigSpike, "ec2", options),
               std::invalid_argument);
}

TEST(LaneDeterminism, RepeatLanedRunIsBitIdentical) {
  const ScenarioParams params = quick_params();
  const LanedRunOptions options = laned_options(params, 4);
  LaneRunInfo first_info;
  LaneRunInfo second_info;
  const ScalingRunResult first = run_scaling_laned(
      params, TraceKind::kBigSpike, "conscale", options, &first_info);
  const ScalingRunResult second = run_scaling_laned(
      params, TraceKind::kBigSpike, "conscale", options, &second_info);
  std::string diff;
  EXPECT_TRUE(results_equivalent(first, second, &diff)) << diff;
  EXPECT_EQ(first_info.stats.windows, second_info.stats.windows);
  EXPECT_EQ(first_info.stats.messages, second_info.stats.messages);
  EXPECT_EQ(first_info.stats.events, second_info.stats.events);
  EXPECT_GT(first_info.stats.windows, 0u);
  EXPECT_DOUBLE_EQ(first_info.lookahead, options.net_delay);
  // The client-edge layout: the system's cell plus one cell per shard, run
  // by `lanes` worker threads.
  EXPECT_EQ(first_info.lanes, 1u + first_info.shards);
  EXPECT_EQ(first_info.threads, options.lanes);
  EXPECT_EQ(first_info.placement,
            "system + " + std::to_string(first_info.shards) +
                " shard cell(s)");
}

}  // namespace
}  // namespace conscale
