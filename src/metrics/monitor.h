// MonitoringAgent: the per-VM monitoring agents + 1 s pollers of Fig 8
// (step 1). It attaches a 50 ms IntervalAggregator to every server (present
// and future — scale-out VMs are picked up through the vm-ready callback),
// polls tier-level CPU utilization and VM counts every second, and folds
// client-side completions into per-second system samples. Everything lands
// in the MetricsWarehouse.
#pragma once

#include <memory>
#include <set>
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

/// Defaults: §III-B's 50 ms fine interval; Fig 8's 1 s agent reports.
struct MonitoringParams {
  SimDuration fine_period = 0.050;
  SimDuration coarse_period = 1.0;
};

class MonitoringAgent {
 public:
  using Params = MonitoringParams;

  MonitoringAgent(Simulation& sim, topology::ServiceGraph& system,
                  MetricsWarehouse& warehouse, Params params = {});

  /// Wire this to the client population's completion hook.
  void on_client_completion(double rt);
  /// Wire this to the client population's rejection hook (admission
  /// control); folds shed requests into the per-second system samples.
  void on_client_rejection();

  const Params& params() const { return params_; }

  /// Total hook underflows across every attached aggregator (see
  /// IntervalAggregator::hook_underflows). Zero in a correct run; the
  /// experiment runner exports it so tests fail loudly on accounting bugs.
  std::uint64_t hook_underflows() const;

 private:
  void attach(std::size_t tier_index, Vm& vm);
  void coarse_tick(SimTime now);

  Simulation& sim_;
  topology::ServiceGraph& system_;
  MetricsWarehouse& warehouse_;
  Params params_;
  std::vector<std::unique_ptr<IntervalAggregator>> aggregators_;
  /// Servers already wired. A restarted VM fires vm-ready again with the
  /// same server; attaching twice would double-count its samples.
  std::set<std::string> attached_;
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
