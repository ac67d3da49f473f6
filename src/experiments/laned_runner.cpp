#include "experiments/laned_runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "experiments/run_assembly.h"
#include "simcore/lanes/placement.h"

namespace conscale {

namespace {

/// Declares every engine channel a tier-laned run posts across: the LAN hop
/// on each cross-cell tier edge (both directions), the vm-ready hop from
/// each tier cell to the control cell, and the client network between the
/// entry cell and every shard cell. declare_channel keeps the minimum on
/// re-declaration, so duplicate edges are harmless.
void declare_cell_channels(lanes::LaneEngine& engine, const CellPlan& cp,
                           SimDuration lan_delay, SimDuration net_delay) {
  for (const auto& edge : cp.edges) {
    const std::size_t from = cp.layout.lane_of_tier[edge.first];
    const std::size_t to = cp.layout.lane_of_tier[edge.second];
    if (from == to) continue;
    engine.declare_channel(from, to, lan_delay);
    engine.declare_channel(to, from, lan_delay);
  }
  for (std::size_t cell : cp.layout.lane_of_tier) {
    if (cell != cp.layout.control_lane) {
      engine.declare_channel(cell, cp.layout.control_lane, lan_delay);
    }
  }
  for (std::size_t j = 0; j < cp.shard_count; ++j) {
    const std::size_t cell = cp.first_shard_cell + j;
    engine.declare_channel(cp.entry_cell, cell, net_delay);
    engine.declare_channel(cell, cp.entry_cell, net_delay);
  }
}

}  // namespace

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
  // Pack the tiers into cells, then lay the full cell map out around them.
  lanes::TierLanePlacement placement;
  std::vector<std::string> names;
  const auto& nodes = scenario.graph.nodes;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    names.push_back(nodes[i].tier.name);
    placement.add_node(nodes[i].tier.name,
                       static_cast<double>(nodes[i].initial_vms));
    for (const topology::RouteStage& stage : nodes[i].route) {
      for (const topology::GraphCall& call : stage.calls) {
        cp.edges.emplace_back(i, call.node);
      }
    }
  }
  for (const auto& [from, to] : cp.edges) {
    placement.add_edge(from, to, options.lan_delay);
  }
  const lanes::LanePlan plan =
      placement.plan(/*min_cut_delay=*/options.lan_delay);
  cp.tiered = true;
  cp.layout.control_lane = 0;
  for (std::size_t lane : plan.lane_of) {
    cp.layout.lane_of_tier.push_back(1 + lane);
  }
  cp.entry_cell = cp.layout.lane_of_tier.front();
  cp.first_shard_cell = 1 + plan.lane_count;
  cp.cells = cp.first_shard_cell + cp.shard_count;
  cp.summary = "control + " + plan.summary(names) + " + " +
               std::to_string(cp.shard_count) + " shard cell(s)";
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
  declare_cell_channels(*engine, plan, options.lan_delay, options.net_delay);
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
