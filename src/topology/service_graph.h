// ServiceGraph: the system under test (DESIGN.md §"Service graphs"). Each
// graph node owns one horizontally scalable TierGroup plus a
// routing spec: an ordered list of stages executed sequentially, where every
// stage fans out to one or more child nodes in parallel and joins on all
// replies before the next stage runs (synchronous RPC semantics throughout —
// the serving thread is held across the whole route, exactly like the
// chain's downstream calls). Nodes may share children ("shared backend"), so
// cross-traffic from several parents meets at one tier and per-node SCT
// ranges must be estimated under interference.
//
// Two node behaviors ride on top of plain routing:
//   * cache nodes — a deterministic hit-ratio model; a hit short-circuits
//     the node's whole subtree. The hit ratio follows the cache's coverage
//     of a (possibly churning) working set, so the critical resource can
//     migrate between nodes mid-run.
//   * admission control at the graph entry — occupancy- and queue-age-based
//     shedding that reports RequestOutcome::kRejected instead of queueing
//     into an overloaded system.
//
// Node index == tier index: every scaling framework, estimator, monitor, and
// fault plan takes the graph directly and addresses its nodes as tiers. The
// paper's n-tier chain is the linear graph where node i makes one call into
// node i+1 (ScenarioParams::system_config); a route's last call, when it is
// alone in its stage, replies straight to the serving thread with no route
// state, so the chain's request path keeps none.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/tier_channel.h"
#include "cluster/tier_group.h"
#include "common/rng.h"
#include "simcore/lanes/lane_engine.h"
#include "simcore/simulation.h"
#include "workload/request.h"

namespace conscale::topology {

/// The fixed cell layout of a laned graph: the control plane (monitor,
/// controllers, agents) on lane 0, which the engine serializes, and node i
/// on lane 1 + i. A laned run puts its session shards on the lanes after
/// the last node, node_lane(node count) onwards.
constexpr std::size_t kControlLane = 0;
constexpr std::size_t node_lane(std::size_t node) { return 1 + node; }

/// One call inside a route stage: dispatch into `node`'s load balancer.
struct GraphCall {
  std::size_t node = 0;
};

/// One sequential step of a node's route. All calls in a stage are issued
/// together (parallel fan-out) and joined on *all* replies before the next
/// stage starts; a single-call stage degenerates to the chain's sequential
/// RPC with zero extra bookkeeping.
struct RouteStage {
  std::vector<GraphCall> calls;
};

/// Deterministic cache model: each downstream invocation of the node draws
/// hit/miss from the node's own RNG stream (forked off the graph seed, so
/// runs replay byte-identically). The hit ratio is the base ratio scaled by
/// how much of the working set the cache covers:
///
///   h(t) = base_hit_ratio * min(1, capacity / ws(t))
///
/// where ws(t) rides a triangle wave of `churn_amplitude` around
/// `working_set` with period `churn_period` (0 = static). A growing working
/// set mid-period drops the hit ratio and pushes load into the subtree —
/// the critical resource migrates between nodes within one run.
struct CacheModel {
  bool enabled = false;
  double base_hit_ratio = 0.8;
  double capacity = 1.0;     ///< cache size, in working-set units
  double working_set = 1.0;  ///< nominal working-set size
  double churn_period = 0.0;     ///< seconds; 0 disables churn
  double churn_amplitude = 0.0;  ///< fractional swing of the working set

  double hit_ratio_at(SimTime t) const;
};

/// Entry-point shedding. A request is rejected (never enters any server)
/// when either bound trips:
///   * occupancy — requests waiting at the entry node (thread-pool queues
///     plus the LB surge backlog) have reached `queue_limit`;
///   * queue age — the oldest still-in-flight admitted request is older
///     than `max_queue_age` (the "queues aged out" signal: responses are
///     already slower than any client would wait for).
/// Either limit set to 0 disables that check.
struct AdmissionPolicy {
  bool enabled = false;
  std::size_t queue_limit = 0;
  double max_queue_age = 0.0;  ///< seconds
};

struct GraphNodeConfig {
  TierConfig tier;  ///< tier_index is overwritten with the node index
  std::size_t initial_vms = 1;
  std::vector<RouteStage> route;  ///< empty = leaf node
  CacheModel cache;
};

struct ServiceGraphConfig {
  /// Node 0 is the graph entry. Routes must form a DAG over the indices and
  /// every node must be reachable from the entry.
  std::vector<GraphNodeConfig> nodes;
  AdmissionPolicy admission;
  std::uint64_t seed = 1;  ///< cache hit/miss streams fork off this
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_occupancy = 0;
  std::uint64_t rejected_age = 0;

  std::uint64_t rejected() const { return rejected_occupancy + rejected_age; }

  bool operator==(const AdmissionStats&) const = default;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  bool operator==(const CacheStats&) const = default;
};

class ServiceGraph final {
 public:
  /// (node index, vm) — fired whenever any node brings a VM online.
  using VmReadyCallback = std::function<void(std::size_t, Vm&)>;

  /// Validates the config (throws std::invalid_argument on cycles,
  /// out-of-range route targets, self-calls, duplicate node names, or
  /// nodes unreachable from the entry), builds one TierGroup per node,
  /// wires the routers, and bootstraps the initial VMs.
  ServiceGraph(Simulation& sim, ServiceGraphConfig config);

  /// Lane-partitioned construction in the fixed cell layout: node i lives
  /// on lane node_lane(i), every route edge crosses a TierChannel with a
  /// `lan_delay` hop each way, and vm-ready signals hop to kControlLane.
  /// The channels and notifiers declare their own engine channels; the
  /// caller submit()s only from the entry node's lane. Throws
  /// std::invalid_argument, before any lane is touched, when the engine has
  /// fewer than 1 + node-count lanes or `lan_delay` <= 0.
  ServiceGraph(lanes::LaneEngine& engine, ServiceGraphConfig config,
               SimDuration lan_delay);

  /// Client entry point. The continuation reports whether the request was
  /// served or shed; rejections fire synchronously at submit time.
  void submit(const RequestContext& ctx,
              std::function<void(RequestOutcome)> done);

  // ---- Nodes as tiers (node index == tier index) ----
  std::size_t tier_count() const { return tiers_.size(); }
  TierGroup& tier(std::size_t index) { return *tiers_[index]; }
  const TierGroup& tier(std::size_t index) const { return *tiers_[index]; }
  /// Finds a tier by name; throws std::out_of_range if absent.
  TierGroup& tier_by_name(const std::string& name);
  /// Resolves a tier name to its index; returns tier_count() if absent
  /// (fault plans use this for validation without exceptions).
  std::size_t tier_index_by_name(const std::string& name) const;

  std::size_t total_billed_vms() const;
  /// Requests aborted by injected crashes, across all tiers (zero in
  /// fault-free runs).
  std::uint64_t total_aborted_requests() const;

  /// Multiple subscribers are supported (metrics, scaling policies, ...).
  void add_vm_ready_callback(VmReadyCallback callback);

  /// The Simulation hosting node `index` (the shared sim when serial).
  Simulation& tier_sim(std::size_t index) { return *node_sims_[index]; }

  // ---- Graph-specific observability ----
  const AdmissionStats& admission_stats() const { return admission_stats_; }
  const CacheStats& cache_stats(std::size_t node) const {
    return cache_stats_[node];
  }

 private:
  struct InFlight {
    std::uint64_t id;
    SimTime admitted_at;
  };

  /// Address of one in-flight route: its node and its slot in that node's
  /// RouteSlab. A call's reply captures [this, ref], 16 trivially copyable
  /// bytes that std::function stores without a heap allocation.
  struct RouteRef {
    std::uint32_t node;
    std::uint32_t slot;
  };
  /// One request between the stages of a node's route: the stage it is in,
  /// the replies that stage still waits for, and where the route replies.
  struct RouteState {
    RequestContext ctx;
    Server::Completion done;
    std::size_t stage = 0;
    std::size_t remaining = 0;
    std::uint32_t next_free = 0;
  };
  /// A node's route states, recycled through a free list. One slab per node,
  /// so on a tier cut only the node's own lane touches it.
  struct RouteSlab {
    std::vector<RouteState> states;
    std::uint32_t free_head = kNoSlot;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  void validate(const ServiceGraphConfig& config) const;
  void build(lanes::LaneEngine* engine, SimDuration lan_delay);
  /// Runs `node`'s route from `stage` on; `done` fires after the last reply.
  void run_route(std::size_t node, const RequestContext& ctx,
                 std::size_t stage, Server::Completion done);
  /// One reply to the stage `ref` waits in; the last one moves the route on.
  void join(RouteRef ref);
  /// Routes one call into node `to`: straight into its load balancer when
  /// serial, across the (from -> to) edge's TierChannel when laned.
  void dispatch_call(std::size_t from, std::size_t to,
                     const RequestContext& ctx, Server::Completion done);
  bool admit();
  void prune_inflight();

  Simulation& sim_;  ///< the entry node's sim (admission clock)
  ServiceGraphConfig config_;
  std::vector<std::unique_ptr<TierGroup>> tiers_;
  std::vector<Simulation*> node_sims_;
  std::vector<RouteSlab> route_slabs_;  ///< per node
  /// Laned graphs only (empty when serial): one channel per distinct route
  /// edge, and the dense (from * n + to) -> channel index, npos for absent
  /// edges.
  std::vector<std::unique_ptr<TierChannel>> channels_;
  std::vector<std::size_t> edge_channel_;
  std::vector<std::unique_ptr<VmReadyNotifier>> notifiers_;
  std::vector<VmReadyCallback> on_vm_ready_;
  std::vector<Rng> cache_rngs_;          ///< per node (unused if no cache)
  std::vector<CacheStats> cache_stats_;  ///< per node
  AdmissionStats admission_stats_;
  /// Age tracking (only populated when the age check is armed): admitted
  /// requests in admission order + lazily-pruned completion marks. Keyed
  /// access only — never iterated (determinism audit, DESIGN.md §8).
  std::deque<InFlight> inflight_;
  std::unordered_set<std::uint64_t> completed_ids_;
};

}  // namespace conscale::topology
