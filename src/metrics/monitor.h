// MonitoringAgent: the per-VM monitoring agents + 1 s pollers of Fig 8
// (step 1). It attaches a 50 ms IntervalAggregator to every server (present
// and future — scale-out VMs are picked up through the vm-ready callback),
// polls tier-level CPU utilization and VM counts every second, and folds
// client-side completions into per-second system samples. Everything lands
// in the MetricsWarehouse. The aggregators also keep each server's
// response-time distribution, which node_latency() merges per node: the
// end-to-end percentiles say *that* the system spiked, the node rows say
// *where* — which tier's in-server response time (queueing included)
// carries the tail.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics/interval.h"
#include "metrics/warehouse.h"
#include "simcore/simulation.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale {

class Vm;

/// Default: §III-B's 50 ms fine interval.
struct MonitoringParams {
  SimDuration fine_period = 0.050;
};

/// One node's in-server response-time distribution over a run, every
/// replica merged.
struct NodeLatency {
  std::string tier;
  std::uint64_t completions = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;

  bool operator==(const NodeLatency&) const = default;
};

class MonitoringAgent {
 public:
  using Params = MonitoringParams;
  /// Fig 8's 1 s agent report period.
  static constexpr SimDuration kCoarsePeriod = 1.0;

  MonitoringAgent(Simulation& sim, topology::ServiceGraph& system,
                  MetricsWarehouse& warehouse, Params params = {});

  /// Wire this to the client population's completion hook.
  void on_client_completion(double rt);
  /// Wire this to the client population's rejection hook (admission
  /// control); folds shed requests into the per-second system samples.
  void on_client_rejection();

  /// Total hook underflows across every attached aggregator (see
  /// IntervalAggregator::hook_underflows). Zero in a correct run; the
  /// experiment runner exports it so tests fail loudly on accounting bugs.
  std::uint64_t hook_underflows() const;

  /// One row per node that completed at least one request, in node-name
  /// order. Each row merges the node's servers in server-name order
  /// ("Tomcat10" before "Tomcat2"): the histogram's sum is a double, so the
  /// merge order is part of the result.
  std::vector<NodeLatency> node_latency() const;

 private:
  struct Attached {
    std::size_t tier_index = 0;
    std::unique_ptr<IntervalAggregator> aggregator;
    /// Sampling since the server's first vm-ready.
    bool started = false;
  };

  /// The server's aggregator, created (hooks on, not yet sampling) on
  /// first sight.
  Attached& wire(std::size_t tier_index, Vm& vm);
  /// vm-ready: wires the server if needed and starts its 50 ms samples.
  void attach(std::size_t tier_index, Vm& vm);
  void coarse_tick(SimTime now);

  Simulation& sim_;
  topology::ServiceGraph& system_;
  MetricsWarehouse& warehouse_;
  Params params_;
  /// Every wired server, by server name. A restarted VM fires vm-ready
  /// again with the same server; starting twice would double-count its
  /// samples.
  std::map<std::string, Attached> servers_;
  /// Interned warehouse ids per tier index — the 1 s poll records by id.
  std::vector<MetricsWarehouse::SeriesId> tier_ids_;
  std::unique_ptr<PeriodicTask> coarse_task_;

  // Per-second client completion accumulation.
  std::uint64_t window_completions_ = 0;
  std::uint64_t window_rejections_ = 0;
  double window_rt_sum_ = 0.0;
  double window_rt_max_ = 0.0;
};

}  // namespace conscale
