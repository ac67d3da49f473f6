// Holt-Winters predictive autoscaler (controller zoo). The reactive
// frameworks all pay the VM preparation delay *after* a ramp arrives: the
// threshold rule needs sustained hot samples, then the new VM needs
// vm_prep_delay (15 s) to boot, and the tail spikes in between. This
// controller instead runs double-exponential smoothing (level + trend) on
// the observed completion rate and scales each tier to the load forecast
// `horizon` seconds ahead — chosen larger than the preparation delay, so
// capacity lands before the ramp does. Proactive class of the
// Qu/Calheiros/Buyya autoscaling taxonomy (arXiv:1609.09224).
//
// With a soft-resource policy attached the same loop is the zoo's hybrid:
// the forecast hides the preparation delay, and the policy (ConScale's
// SCT-backed one) re-fits thread/connection pools to the new capacity, the
// adaptive half of the taxonomy. It adapts exactly where DecisionController
// does: when a scale-out VM comes online, right after a scale-in, and on a
// slow periodic cadence.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "conscale/agents.h"
#include "conscale/controller.h"
#include "conscale/policy.h"
#include "conscale/zoo/zoo_params.h"
#include "metrics/warehouse.h"
#include "simcore/simulation.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale::zoo {

class PredictiveController final : public Controller {
 public:
  /// `policy` (optional) adapts soft resources at every hardware action and,
  /// when `adapt_period` > 0, every `adapt_period` seconds; it must outlive
  /// the controller. Without it soft resources stay static.
  PredictiveController(Simulation& sim, topology::ServiceGraph& system,
                       const MetricsWarehouse& warehouse, HardwareAgent& hw,
                       PredictiveControllerParams params,
                       SoftResourcePolicy* policy = nullptr,
                       SimDuration adapt_period = 0.0);

  /// "forecasts", "scale_ins", "scale_outs", plus "adapts" when a policy is
  /// attached.
  ControllerCounters counters() const override;

 private:
  void step(SimTime now);
  void adapt(SimTime now);

  Simulation& sim_;
  topology::ServiceGraph& system_;
  const MetricsWarehouse& warehouse_;
  HardwareAgent& hw_;
  PredictiveControllerParams params_;
  SoftResourcePolicy* policy_;
  std::unique_ptr<PeriodicTask> step_task_;
  std::unique_ptr<PeriodicTask> adapt_task_;
  // Holt state over the 1 s completion-rate series, updated once per period.
  double level_ = 0.0;
  double trend_ = 0.0;
  bool primed_ = false;
  std::vector<SimTime> cooldown_until_;  ///< by tier index
  std::uint64_t forecasts_ = 0;
  std::uint64_t scale_outs_ = 0;
  std::uint64_t scale_ins_ = 0;
  std::uint64_t adapts_ = 0;
};

}  // namespace conscale::zoo
