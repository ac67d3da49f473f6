// The controller layer. `Controller` is the abstract plug-in interface every
// scaling framework's decision loop implements; registered builders
// (conscale/registry.h) return one per run. `DecisionController` (Fig 8) is
// the shared threshold-rule implementation the paper's three frameworks use:
// every second it reads each tier's CPU utilization from the Metrics
// Warehouse, runs the shared threshold rule, and orders the hardware agent
// to scale out/in. Whenever a hardware action completes (the new VM is
// Running, or a drain has started), it asks the soft-resource policy to
// adapt — which is where EC2-AutoScaling, DCM, and ConScale diverge.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "conscale/agents.h"
#include "conscale/policy.h"
#include "conscale/threshold_rule.h"
#include "metrics/warehouse.h"
#include "simcore/simulation.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale {

/// Generic, ordered counter map every controller reports through — the
/// report/CSV/JSON layers iterate it without knowing the controller type,
/// so a new plug-in's counters surface with zero report-layer changes.
using ControllerCounters = std::map<std::string, std::uint64_t>;

/// Abstract decision loop: the per-run object that watches the warehouse
/// and drives the hardware/software agents. Implementations schedule their
/// own periodic tasks on the run's Simulation at construction time; the
/// framework owns them for the lifetime of the run. Keep construction
/// side-effect-free beyond scheduling — runs must stay bit-reproducible.
class Controller {
 public:
  virtual ~Controller() = default;
  /// Diagnostic counters for reports (decision/actuation totals). Keys are
  /// free-form but stable within a controller; values are run totals.
  virtual ControllerCounters counters() const = 0;
};

struct ControllerConfig {
  ThresholdRuleParams rule;
  SimDuration tick = 1.0;  ///< decision period (Fig 8: 1 s metrics)
  /// Also re-run the policy's adaptation on a slow periodic cadence, so a
  /// drifting environment is caught even without hardware scaling events.
  /// 0 disables (the paper's base behaviour: adapt at scaling time only).
  SimDuration periodic_adapt = 0.0;
  /// Monitoring-dropout guard: when > 0, a tier whose newest warehouse
  /// sample is older than this many seconds is held — no scaling decision is
  /// taken on blank or stale data (the last sample would otherwise be
  /// replayed every tick). 0 disables the guard (fault-free default).
  SimDuration metric_staleness_limit = 0.0;
};

class DecisionController : public Controller {
 public:
  DecisionController(Simulation& sim, topology::ServiceGraph& system,
                     const MetricsWarehouse& warehouse, HardwareAgent& hw,
                     SoftwareAgent& sw, SoftResourcePolicy& policy,
                     ControllerConfig config);

  /// "adapts", "scale_ins", "scale_outs", and "stale_skips" (tier-ticks
  /// skipped because metrics were stale: the dropout guard).
  ControllerCounters counters() const override;

 private:
  void tick(SimTime now);

  Simulation& sim_;
  topology::ServiceGraph& system_;
  const MetricsWarehouse& warehouse_;
  HardwareAgent& hw_;
  SoftwareAgent& sw_;
  SoftResourcePolicy& policy_;
  ControllerConfig config_;
  std::vector<ThresholdRule> rules_;  ///< one per tier
  std::unique_ptr<PeriodicTask> tick_task_;
  std::unique_ptr<PeriodicTask> adapt_task_;
  std::uint64_t scale_outs_ = 0;
  std::uint64_t scale_ins_ = 0;
  std::uint64_t adapts_ = 0;
  std::uint64_t stale_skips_ = 0;
};

}  // namespace conscale
