// Laned experiment runners: run_scaling / run_graph_scaling executed on the
// lane-partitioned PDES engine (src/simcore/lanes/, DESIGN.md §6.6).
//
// Every laned run has one cell layout, a pure function of the model config:
// cell 0 hosts the control plane (warehouse, monitor, scaling framework,
// fault injector), then — on a tier cut — graph node i gets cell 1 + i
// (topology::node_lane), and finally each of the `shards` SessionShards
// gets its own cell behind the client<->frontend network channel to a
// LaneGateway on the entry cell. The two layouts differ only in the cut:
//
//  * Client-edge (tier_lanes == 0): no cut. Cell 0 hosts the entire serving
//    system unchanged, so every registry controller runs unmodified; the
//    closed-loop session population is what runs in parallel.
//
//  * Tier-laned (tier_lanes > 0): the serving system itself is cut, the
//    node cells joined by explicit LAN-hop channels (`lan_delay` per
//    direction). The engine serializes instants where cell 0 acts, which is
//    what lets controllers keep calling scale_out() and scale_in(), and
//    fault plans crash VMs, directly on remote tiers.
//
// Every cross-cell edge is a declared engine channel, and the engine's
// time window is the narrowest of them (lane_engine.h).
//
// Determinism contract: `lanes` / `tier_lanes` set ONLY the worker thread
// count; results are pinned byte-identical across thread counts by
// tests/experiments/lane_determinism_test and the CI bench_scale smoke.
// `shards`, by contrast, is a model parameter — changing it re-partitions
// the session population and legitimately changes RNG consumption.
#pragma once

#include <cstddef>
#include <string>

#include "experiments/graph_runner.h"
#include "experiments/runner.h"
#include "simcore/lanes/lane_engine.h"

namespace conscale {

struct LanedRunOptions {
  /// Everything run_scaling accepts (duration, monitoring, framework
  /// overrides, faults, context). session_workload is not supported on the
  /// laned path (throws std::invalid_argument): session shards do not model
  /// Markov sessions.
  ScalingRunOptions base;
  /// Worker threads for the client-edge layout. 1 = serial reference
  /// execution (no worker thread, same round schedule). Results are
  /// independent of this value. Ignored when tier_lanes > 0.
  std::size_t lanes = 1;
  /// Session-population partitions. Fixed independently of the thread count
  /// so the model (and its RNG consumption) does not change with it.
  /// 0 = autotune from the scenario's peak sessions and think time (see
  /// autotune_shards); the chosen plan is reported in LaneRunInfo.
  std::size_t shards = 12;
  /// Client<->frontend one-way network latency — the client channel delay.
  SimDuration net_delay = 0.05;
  /// Tier-laned mode switch and worker thread count: 0 keeps the
  /// client-edge layout; K > 0 cuts the system into one cell per node,
  /// executed by K threads. The cell layout never depends on K.
  std::size_t tier_lanes = 0;
  /// Inter-tier LAN hop (each direction) in tier-laned mode — every
  /// tier->tier edge and the tier->control vm-ready signal crosses it. Must
  /// be > 0 when tier_lanes > 0. It is model latency, so tier-cut results
  /// depend on it; the engine's window is min(lan_delay, net_delay).
  SimDuration lan_delay = 0.010;
};

/// Execution report of a laned run (not part of the determinism-compared
/// result payload — wall-clock-free, but kept separate for clarity).
struct LaneRunInfo {
  lanes::LaneEngineStats stats;
  /// The window the engine derived from its channels.
  SimDuration lookahead = 0.0;
  /// Kept for benchmark/driver.cpp only; the next benchmark PR deletes it.
  lanes::Protocol protocol = lanes::Protocol::kTimeWindow;
  /// Engine cells: control (+ one per node on a tier cut) + one per shard.
  std::size_t lanes = 0;
  /// Worker threads executing them.
  std::size_t threads = 0;
  std::size_t shards = 0;
  /// True when `shards == 0` selected the count via autotune_shards.
  bool shards_autotuned = false;
  /// Human-readable cell map.
  std::string placement;
  /// Sessions still alive across every shard when the run ended (the
  /// bench_scale "concurrent sessions" figure).
  std::uint64_t active_sessions = 0;
};

/// Shard-count autotune (`shards = 0`): a shard is sized to carry roughly
/// 300 request round-trips per simulated second, and each active session
/// contributes ~1/think_time of them — so the count is
/// ceil(peak_sessions / think_time / 300), clamped to [1, 64]. A pure
/// function of the model parameters (never of lane or thread counts).
std::size_t autotune_shards(double peak_sessions, double think_time_mean);

/// Chain counterpart of run_scaling on the lane engine. The result has the
/// exact shape run_scaling produces (same dumps, same results_equivalent),
/// with client statistics merged from the shards in shard-index order.
ScalingRunResult run_scaling_laned(const ScenarioParams& params,
                                   const WorkloadTrace& trace,
                                   const std::string& framework_ref,
                                   const LanedRunOptions& options = {},
                                   LaneRunInfo* info = nullptr);

/// Convenience: trace from a kind, seed derivation identical to
/// run_scaling's (seed ^ 0xbeef).
ScalingRunResult run_scaling_laned(const ScenarioParams& params,
                                   TraceKind trace,
                                   const std::string& framework_ref,
                                   const LanedRunOptions& options = {},
                                   LaneRunInfo* info = nullptr);

/// Service-graph counterpart of run_graph_scaling on the lane engine.
GraphRunResult run_graph_scaling_laned(const GraphScenario& scenario,
                                       const WorkloadTrace& trace,
                                       const std::string& framework_ref,
                                       const LanedRunOptions& options = {},
                                       LaneRunInfo* info = nullptr);

/// Convenience: trace from a kind (seed ^ 0xbeef, as above).
GraphRunResult run_graph_scaling_laned(const GraphScenario& scenario,
                                       TraceKind trace,
                                       const std::string& framework_ref,
                                       const LanedRunOptions& options = {},
                                       LaneRunInfo* info = nullptr);

}  // namespace conscale
