// Robust vertical scaler (controller zoo), after Makridis et al.
// (arXiv:1811.05533): keep each managed tier's per-VM CPU *entitlement* (the
// hypervisor-credit speed window the fault injector also drives) tracking
// measured usage plus headroom. Horizontal scaling stays on the shared
// threshold DecisionController — the entitlement loop reclaims the slack
// horizontal scaling leaves behind, and hands capacity back before the
// threshold rule would have to add a whole VM.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "conscale/agents.h"
#include "conscale/controller.h"
#include "conscale/zoo/zoo_params.h"
#include "metrics/warehouse.h"
#include "simcore/simulation.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale::zoo {

/// Composes the shared threshold DecisionController (horizontal + policy
/// adaptation) with a periodic per-tier entitlement review:
///   usage_k   = utilization_k * entitlement_k        (in nominal-CPU units)
///   desired_k = clamp(usage_k / target_utilization)
///   e_{k+1}   = e_k + smoothing * (desired_k - e_k), actuated outside the
///               deadband only.
/// Utilization is measured against the *entitled* speed, so trimming raises
/// the reading — the loop converges onto target_utilization, which sits
/// safely below the threshold rule's 80 % scale-out line.
class VerticalEntitlementController final : public Controller {
 public:
  VerticalEntitlementController(Simulation& sim, topology::ServiceGraph& system,
                                const MetricsWarehouse& warehouse,
                                HardwareAgent& hw, SoftwareAgent& sw,
                                SoftResourcePolicy& policy,
                                const ControllerConfig& controller_config,
                                VerticalControllerParams params);

  ControllerCounters counters() const override;

 private:
  void review(SimTime now);

  topology::ServiceGraph& system_;
  const MetricsWarehouse& warehouse_;
  HardwareAgent& hw_;
  VerticalControllerParams params_;
  DecisionController horizontal_;
  std::vector<double> entitlement_;  ///< by tier index
  std::unique_ptr<PeriodicTask> review_task_;
  std::uint64_t raises_ = 0;
  std::uint64_t trims_ = 0;
  std::uint64_t holds_ = 0;
};

}  // namespace conscale::zoo
