// Hybrid proactive/adaptive autoscaler (controller zoo): Holt-Winters
// forecasting on the hardware loop combined with ConScale's online SCT
// soft-resource adaptation.
//
// The zoo's two most capable loops attack different halves of the response
// time problem. HoltWinters-Pred hides the VM preparation delay by scaling
// to a forecast, but leaves thread/connection pools static, so the fresh
// capacity serves behind mis-sized soft resources. ConScale adapts the soft
// resources fast, but its hardware loop is the reactive threshold rule that
// eats the full preparation delay on every ramp. This controller composes
// the complementary halves: the PredictiveController forecast drives
// scale-out/in, and every hardware action (VM ready, drain started) plus a
// slow periodic cadence re-runs the SCT-backed policy adaptation exactly as
// DecisionController would.
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

class HybridController final : public Controller {
 public:
  HybridController(Simulation& sim, topology::ServiceGraph& system,
                   const MetricsWarehouse& warehouse, HardwareAgent& hw,
                   SoftResourcePolicy& policy, HybridControllerParams params);

  ControllerCounters counters() const override;

 private:
  void step(SimTime now);

  Simulation& sim_;
  topology::ServiceGraph& system_;
  const MetricsWarehouse& warehouse_;
  HardwareAgent& hw_;
  SoftResourcePolicy& policy_;
  HybridControllerParams params_;
  std::unique_ptr<PeriodicTask> step_task_;
  std::unique_ptr<PeriodicTask> adapt_task_;
  // Holt state over the 1 s completion-rate series (see
  // PredictiveController; the smoothing math is deliberately identical).
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
