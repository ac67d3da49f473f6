#include "experiments/laned_runner.h"

#include <algorithm>
#include <cmath>
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
  const ScenarioParams& base = scenario.base;
  CellPlan cp;
  cp.shards_autotuned = options.shards == 0;
  cp.shard_count =
      cp.shards_autotuned
          ? autotune_shards(base.scaled_users(base.max_users), base.think_time)
          : options.shards;
  if (options.tier_lanes == 0) {
    cp.cells = std::max<std::size_t>(options.lanes, 1);
    return cp;
  }
  if (!(options.lan_delay > 0.0)) {
    throw std::invalid_argument(
        "laned runner: tier_lanes needs lan_delay > 0");
  }
  // The graph's fixed layout (control, then one cell per node), then one
  // cell per shard.
  const auto& nodes = scenario.graph.nodes;
  cp.tiered = true;
  cp.entry_cell = topology::node_lane(0);
  cp.first_shard_cell = topology::node_lane(nodes.size());
  cp.cells = cp.first_shard_cell + cp.shard_count;
  cp.summary = "control +";
  for (const topology::GraphNodeConfig& node : nodes) {
    cp.summary += " [" + node.tier.name + "]";
  }
  cp.summary += " + " + std::to_string(cp.shard_count) + " shard cell(s)";
  return cp;
}

std::unique_ptr<lanes::LaneEngine> make_lane_engine(
    const lanes::LookaheadAnalysis& analysis, const LanedRunOptions& options,
    const CellPlan& plan) {
  lanes::LaneEngine::Options eo;
  eo.lanes = plan.cells;
  eo.lookahead = analysis.window();
  if (!plan.tiered) {
    // Client-edge layout: lanes == threads, time windows, no declared
    // channels.
    return std::make_unique<lanes::LaneEngine>(eo);
  }
  eo.threads = options.tier_lanes;
  switch (options.protocol) {
    case LanedRunOptions::ProtocolChoice::kTimeWindow:
      eo.protocol = lanes::LaneEngine::Protocol::kTimeWindow;
      break;
    case LanedRunOptions::ProtocolChoice::kNullMessage:
      eo.protocol = lanes::LaneEngine::Protocol::kNullMessage;
      break;
    case LanedRunOptions::ProtocolChoice::kAuto:
      eo.protocol = analysis.recommended();
      break;
  }
  // Anti-flood floor: half a window. Suppressing sub-floor EOT advances
  // caps null traffic without affecting results (scheduling-only, see
  // lane_engine.h) — the rescue pass re-announces when a lane would starve.
  eo.null_floor = 0.5 * analysis.window();
  eo.serialize_lane0 = true;
  auto engine = std::make_unique<lanes::LaneEngine>(eo);
  // The client network between the entry cell and every shard cell; the
  // graph's channels and notifiers declare the LAN hops themselves.
  for (std::size_t j = 0; j < plan.shard_count; ++j) {
    const std::size_t cell = plan.first_shard_cell + j;
    engine->declare_channel(plan.entry_cell, cell, options.net_delay);
    engine->declare_channel(cell, plan.entry_cell, options.net_delay);
  }
  return engine;
}

/// The LookaheadAnalysis channel the gateway terminates must be the delay
/// the gateway (and the shards) actually model — the engine's safety rests
/// on it, so drift is a logic error, not a tuning knob.
void validate_net_delay(const lanes::LookaheadAnalysis& analysis,
                        const LaneGateway& gateway) {
  for (const lanes::LookaheadSource& source : analysis.sources()) {
    if (!source.is_channel || source.name != "client->frontend net") continue;
    if (source.delay == gateway.net_delay()) return;
    throw std::logic_error(
        "laned runner: gateway net_delay diverged from the analyzed "
        "client channel delay");
  }
  throw std::logic_error(
      "laned runner: lookahead analysis lost the client channel");
}

/// Shard seeds derive from the same client seed the serial runs use
/// (params.seed ^ 0xc11e) via one splitmix-style draw per shard in index
/// order — a function of (seed, shard_index) only, never of the lane or
/// thread count.
std::vector<std::unique_ptr<SessionShard>> make_shards(
    lanes::LaneEngine& engine, const ScenarioParams& params,
    const WorkloadTrace& trace, const RequestMix& mix, LaneGateway& gateway,
    const LanedRunOptions& options, const CellPlan& plan) {
  const std::size_t shard_count = plan.shard_count;
  Rng seeder(params.seed ^ 0xc11e);
  std::vector<std::unique_ptr<SessionShard>> shards;
  shards.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    SessionShard::Params sp;
    sp.think_time_mean = params.think_time;
    sp.seed = seeder.next();
    sp.net_delay = options.net_delay;
    const std::size_t cell = plan.tiered ? plan.first_shard_cell + i
                                         : shard_lane(i, engine.lane_count());
    shards.push_back(std::make_unique<SessionShard>(
        engine, cell, i, shard_count, trace, mix, gateway,
        /*gateway_lane=*/plan.entry_cell, sp));
  }
  return shards;
}

std::size_t autotune_shards(double peak_sessions, double think_time_mean) {
  constexpr double kRequestsPerShardSecond = 300.0;
  const double think = std::max(think_time_mean, 1e-6);
  const double aggregate_rate = std::max(peak_sessions, 0.0) / think;
  const double shards = std::ceil(aggregate_rate / kRequestsPerShardSecond);
  if (!(shards >= 1.0)) return 1;
  if (shards >= 64.0) return 64;
  return static_cast<std::size_t>(shards);
}

lanes::LookaheadAnalysis analyze_lookahead(const ScenarioParams& params,
                                           const LanedRunOptions& options) {
  lanes::LookaheadAnalysis analysis;
  // The client<->frontend network, both directions — the only cross-lane
  // delay of the client-edge layout, and the widest channel of the
  // tier-laned one.
  analysis.add_source("client->frontend net", options.net_delay, true);
  analysis.add_source("frontend->client net", options.net_delay, true);
  if (options.tier_lanes > 0) {
    // Tier-laned: the LAN hop is a channel too. It is the minimum, so it
    // bounds the window; the net/LAN skew is what flips the recommendation
    // to null messages (per-channel bounds let the client edge run ahead of
    // the tight tier ring — see lookahead.h).
    analysis.add_source("tier->tier LAN hop", options.lan_delay, true);
    analysis.add_source("vm-ready LAN hop", options.lan_delay, true);
  }
  // Documented slack that never crosses a lane boundary: the scaling loop
  // stays local to the control lane.
  analysis.add_source("vm prep delay", params.vm_prep_delay, false);
  analysis.add_source("monitoring coarse period",
                      options.base.monitoring.coarse_period, false);
  return analysis;
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
