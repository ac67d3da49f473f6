// The one assembly behind every scaling run. run_scaling, run_graph_scaling
// and their _laned twins are delegations: the chain entry points pass
// make_linear_scenario(params), the TraceKind overloads derive their trace
// with make_run_trace, and every run ends in assemble_run. Laned runs lay
// out their cells with the helpers below, defined in laned_runner.cpp.
// Internal to src/experiments; the public API is the three runner headers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "experiments/laned_runner.h"
#include "workload/session_shard.h"

namespace conscale {

/// The cell map of one laned run: cell 0 = control plane (and the whole
/// system in the client-edge layout), cell 1 + i = graph node i on a tier
/// cut (topology::node_lane), then one cell per session shard.
struct CellPlan {
  bool tiered = false;
  std::size_t cells = 1;
  std::size_t entry_cell = 0;       ///< gateway + front tier
  std::size_t first_shard_cell = 0; ///< shard j lives on first_shard_cell + j
  std::size_t shard_count = 0;
  std::string summary;
};

/// Validates `options` and lays out the cells of a laned run of `scenario`.
CellPlan plan_cells(const GraphScenario& scenario,
                    const LanedRunOptions& options);

/// The lane engine for `plan`, with the client channels between the entry
/// cell and the shard cells declared (a tier-laned graph declares its own).
std::unique_ptr<lanes::LaneEngine> make_lane_engine(
    const LanedRunOptions& options, const CellPlan& plan);

/// The session shards of a laned run, placed on their cells and talking to
/// `gateway` on the entry cell.
std::vector<std::unique_ptr<SessionShard>> make_shards(
    lanes::LaneEngine& engine, const ScenarioParams& params,
    const WorkloadTrace& trace, const RequestMix& mix, LaneGateway& gateway,
    const CellPlan& plan);

/// The trace a TraceKind entry point runs: the scenario's user scale over
/// `duration`, seeded with base.seed ^ 0xbeef.
WorkloadTrace make_run_trace(const ScenarioParams& base, TraceKind kind,
                             SimDuration duration);

/// Assembles `scenario`'s system, workload and controller, runs it for
/// options.duration and extracts the result. `laned` null runs serially on
/// a plain Simulation; otherwise the run executes on the lane engine in the
/// layout `laned` selects, and `info` (when non-null) receives the engine
/// report.
GraphRunResult assemble_run(const GraphScenario& scenario,
                            const WorkloadTrace& trace,
                            const std::string& framework_ref,
                            const ScalingRunOptions& options,
                            const LanedRunOptions* laned = nullptr,
                            LaneRunInfo* info = nullptr);

}  // namespace conscale
