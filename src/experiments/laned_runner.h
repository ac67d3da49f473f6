// Laned experiment runners: run_scaling / run_graph_scaling executed on the
// lane-partitioned PDES engine (src/simcore/lanes/, DESIGN.md §6.6).
//
// Two placements share these entry points:
//
//  * Client-edge partitioning (tier_lanes == 0, the original layout): lane 0
//    hosts the entire serving system — the topology::ServiceGraph,
//    warehouse, monitor, scaling framework, fault injector — completely
//    unchanged, so every registry controller runs unmodified. The closed-loop
//    session population is what gets parallel: it is split into `shards`
//    SessionShards placed round-robin on the worker lanes, talking to a
//    LaneGateway on lane 0 across the client<->frontend network channel.
//
//  * Tier-laned partitioning (tier_lanes > 0): the serving system itself is
//    cut. Cell 0 carries only the control plane (warehouse, monitor coarse
//    poll, scaling framework, fault injector); graph node i gets cell 1 + i
//    (topology::node_lane), the cells joined by explicit LAN-hop channels
//    (`lan_delay` per direction); each session shard gets its own cell
//    behind the client network channel. The cell layout is a pure function
//    of the model config, and `tier_lanes` sets ONLY the worker thread
//    count — so tier_lanes=1 and tier_lanes=K are byte-identical under either
//    synchronization protocol. The engine serializes instants where cell 0
//    acts, which is what lets controllers keep calling scale_out() and
//    scale_in(), and fault plans crash VMs, directly on remote tiers.
//
// Determinism contract: `lanes` / `tier_lanes` control thread placement
// only; results are pinned byte-identical across thread counts by
// tests/experiments/lane_determinism_test and the CI bench_scale smoke.
// `shards`, by contrast, is a model parameter — changing it re-partitions
// the session population and legitimately changes RNG consumption.
#pragma once

#include <cstddef>
#include <string>

#include "experiments/graph_runner.h"
#include "experiments/runner.h"
#include "simcore/lanes/lane_engine.h"
#include "simcore/lanes/lookahead.h"

namespace conscale {

struct LanedRunOptions {
  /// Everything run_scaling accepts (duration, monitoring, framework
  /// overrides, faults, context). session_workload is not supported on the
  /// laned path (throws std::invalid_argument): session shards do not model
  /// Markov sessions.
  ScalingRunOptions base;
  /// Event-loop partitions for the client-edge layout. 1 = serial reference
  /// execution (zero threads, same window schedule). Results are
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
  /// client-edge layout; K > 0 partitions the system into cells (control /
  /// one per tier / shards) executed by K threads. The cell layout never
  /// depends on K.
  std::size_t tier_lanes = 0;
  /// Inter-tier LAN hop (each direction) in tier-laned mode — every
  /// tier->tier edge and the tier->control vm-ready signal crosses it, and
  /// it bounds the lookahead window. Must be > 0 when tier_lanes > 0.
  SimDuration lan_delay = 0.010;
  /// Synchronization protocol for tier-laned runs. kAuto defers to the
  /// LookaheadAnalysis skew rule (uniform channels -> time windows, skewed
  /// -> null messages). Ignored when tier_lanes == 0 (the client-edge
  /// layout has uniform channels and always uses time windows).
  enum class ProtocolChoice { kAuto, kTimeWindow, kNullMessage };
  ProtocolChoice protocol = ProtocolChoice::kAuto;
};

/// Execution report of a laned run (not part of the determinism-compared
/// result payload — wall-clock-free, but kept separate for clarity).
struct LaneRunInfo {
  lanes::LaneEngineStats stats;
  SimDuration lookahead = 0.0;
  /// The protocol the engine actually ran (after any override).
  lanes::LookaheadAnalysis::Protocol protocol =
      lanes::LookaheadAnalysis::Protocol::kTimeWindow;
  std::string lookahead_summary;
  /// Engine partitions (cells in tier-laned mode).
  std::size_t lanes = 0;
  /// Worker threads executing them (== lanes in the client-edge layout).
  std::size_t threads = 0;
  std::size_t shards = 0;
  /// True when `shards == 0` selected the count via autotune_shards.
  bool shards_autotuned = false;
  /// Human-readable cell map of a tier-laned run (empty otherwise).
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

/// The lookahead analysis a laned run performs before constructing the
/// engine, exposed for tests and bench_scale's banner. Client-edge layout:
/// the client channel (both directions) bounds the window; VM prep delay
/// and the monitoring coarse period are documented as non-channel slack.
/// Tier-laned layout: the LAN hop joins as a channel (it then bounds the
/// window), and the net/LAN skew drives the protocol recommendation.
lanes::LookaheadAnalysis analyze_lookahead(const ScenarioParams& params,
                                           const LanedRunOptions& options);

}  // namespace conscale
