#include "conscale/zoo/vertical_controller.h"

#include <algorithm>
#include <cmath>

#include "topology/service_graph.h"

namespace conscale::zoo {

VerticalEntitlementController::VerticalEntitlementController(
    Simulation& sim, topology::ServiceGraph& system,
    const MetricsWarehouse& warehouse,
    HardwareAgent& hw, SoftwareAgent& sw, SoftResourcePolicy& policy,
    const ControllerConfig& controller_config,
    VerticalControllerParams params)
    : system_(system), warehouse_(warehouse), hw_(hw), params_(params),
      horizontal_(sim, system, warehouse, hw, sw, policy, controller_config),
      entitlement_(system.tier_count(), params.max_entitlement) {
  review_task_ = std::make_unique<PeriodicTask>(
      sim, params_.period, [this](SimTime now) { review(now); });
}

void VerticalEntitlementController::review(SimTime) {
  for (const std::size_t tier_index : params_.tiers) {
    if (tier_index >= system_.tier_count()) continue;
    TierGroup& tier = system_.tier(tier_index);
    const TierSample sample = warehouse_.latest_tier(tier.name());
    if (sample.running_vms == 0) continue;  // nothing to entitle yet
    const double current = entitlement_[tier_index];
    // Utilization is relative to the entitled speed; convert to nominal-CPU
    // usage so the target tracks real demand, not the shrinking window.
    const double usage = sample.avg_cpu_utilization * current;
    const double desired =
        std::clamp(usage / params_.target_utilization,
                   params_.min_entitlement, params_.max_entitlement);
    const double next =
        current + params_.smoothing * (desired - current);
    if (std::abs(next - current) < params_.deadband) {
      ++holds_;
      continue;
    }
    if (hw_.set_tier_cpu_entitlement(tier_index, next)) {
      entitlement_[tier_index] = next;
      if (next > current) {
        ++raises_;
      } else {
        ++trims_;
      }
    }
  }
}

ControllerCounters VerticalEntitlementController::counters() const {
  ControllerCounters counters = horizontal_.counters();
  counters.emplace("entitlement_holds", holds_);
  counters.emplace("entitlement_raises", raises_);
  counters.emplace("entitlement_trims", trims_);
  return counters;
}

}  // namespace conscale::zoo
