#include "experiments/laned_runner.h"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "experiments/run_assembly.h"

namespace conscale {

CellPlan plan_cells(const GraphScenario& scenario,
                    const LanedRunOptions& options) {
  if (options.base.session_workload) {
    throw std::invalid_argument(
        "laned runner: session workloads are not supported on lanes");
  }
  if (options.shards == 0) {
    throw std::invalid_argument("laned runner: shards must be >= 1");
  }
  CellPlan cp;
  cp.shard_count = options.shards;
  // Control (with the whole system unless it is cut, one cell per node
  // otherwise), then one cell per shard. The laned ServiceGraph checks
  // lan_delay, the engine each channel's delay.
  cp.tiered = options.tier_lanes > 0;
  if (cp.tiered) {
    const auto& nodes = scenario.graph.nodes;
    cp.entry_cell = topology::node_lane(0);
    cp.first_shard_cell = topology::node_lane(nodes.size());
    cp.summary = "control +";
    for (const topology::GraphNodeConfig& node : nodes) {
      cp.summary += " [" + node.tier.name + "]";
    }
  } else {
    cp.first_shard_cell = 1;
    cp.summary = "system";
  }
  cp.cells = cp.first_shard_cell + cp.shard_count;
  cp.summary += " + " + std::to_string(cp.shard_count) + " shard cell(s)";
  return cp;
}

std::unique_ptr<lanes::LaneEngine> make_lane_engine(
    const LanedRunOptions& options, const CellPlan& plan) {
  lanes::LaneEngine::Options eo;
  eo.lanes = plan.cells;
  eo.threads = plan.tiered ? options.tier_lanes : options.lanes;
  // A cut system's control cell reaches into the node cells directly.
  eo.serialize_lane0 = plan.tiered;
  auto engine = std::make_unique<lanes::LaneEngine>(eo);
  // The client network between the entry cell and every shard cell; a
  // tier-laned graph's channels and notifiers declare the LAN hops
  // themselves.
  for (std::size_t j = 0; j < plan.shard_count; ++j) {
    const std::size_t cell = plan.first_shard_cell + j;
    engine->declare_channel(plan.entry_cell, cell, options.net_delay);
    engine->declare_channel(cell, plan.entry_cell, options.net_delay);
  }
  return engine;
}

/// Shard seeds derive from the same client seed the serial runs use
/// (params.seed ^ 0xc11e) via one splitmix-style draw per shard in index
/// order — a function of (seed, shard_index) only, never of the lane or
/// thread count.
std::vector<std::unique_ptr<SessionShard>> make_shards(
    lanes::LaneEngine& engine, const ScenarioParams& params,
    const WorkloadTrace& trace, const RequestMix& mix, LaneGateway& gateway,
    const CellPlan& plan) {
  const std::size_t shard_count = plan.shard_count;
  Rng seeder(params.seed ^ 0xc11e);
  std::vector<std::unique_ptr<SessionShard>> shards;
  shards.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    SessionShard::Params sp;
    sp.think_time_mean = params.think_time;
    sp.seed = seeder.next();
    shards.push_back(std::make_unique<SessionShard>(
        engine, plan.first_shard_cell + i, i, shard_count, trace, mix, gateway,
        sp));
  }
  return shards;
}

ScalingRunResult run_scaling_laned(const ScenarioParams& params,
                                   TraceKind kind,
                                   const std::string& framework_ref,
                                   const LanedRunOptions& options,
                                   LaneRunInfo* info) {
  return run_scaling_laned(
      params, make_run_trace(params, kind, options.base.duration),
      framework_ref, options, info);
}

ScalingRunResult run_scaling_laned(const ScenarioParams& params,
                                   const WorkloadTrace& trace,
                                   const std::string& framework_ref,
                                   const LanedRunOptions& options,
                                   LaneRunInfo* info) {
  return run_graph_scaling_laned(make_linear_scenario(params), trace,
                                 framework_ref, options, info)
      .run;
}

GraphRunResult run_graph_scaling_laned(const GraphScenario& scenario,
                                       TraceKind kind,
                                       const std::string& framework_ref,
                                       const LanedRunOptions& options,
                                       LaneRunInfo* info) {
  return run_graph_scaling_laned(
      scenario, make_run_trace(scenario.base, kind, options.base.duration),
      framework_ref, options, info);
}

GraphRunResult run_graph_scaling_laned(const GraphScenario& scenario,
                                       const WorkloadTrace& trace,
                                       const std::string& framework_ref,
                                       const LanedRunOptions& options,
                                       LaneRunInfo* info) {
  return assemble_run(scenario, trace, framework_ref, options.base, &options,
                      info);
}

}  // namespace conscale
