#include "conscale/estimator_service.h"

#include <cmath>

#include "sct/scatter.h"
#include "topology/service_graph.h"

namespace conscale {

ConcurrencyEstimatorService::ConcurrencyEstimatorService(
    Simulation& sim, topology::ServiceGraph& system,
    const MetricsWarehouse& warehouse, EstimatorServiceParams params)
    : sim_(sim), system_(system), warehouse_(warehouse), params_(params) {
  refresh_task_ = std::make_unique<PeriodicTask>(
      sim_, params_.refresh, [this](SimTime now) { refresh(now); });
}

std::optional<RationalRange> ConcurrencyEstimatorService::tier_estimate(
    const std::string& tier_name) const {
  auto it = cache_.find(tier_name);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

void ConcurrencyEstimatorService::refresh_now() { refresh(sim_.now()); }

void ConcurrencyEstimatorService::refresh(SimTime now) {
  for (std::size_t i = 0; i < system_.tier_count(); ++i) {
    TierGroup& tier = system_.tier(i);
    ScatterSet scatter;
    SimTime newest = 0.0;
    bool any_samples = false;
    for (Vm* vm : tier.all_vms()) {
      // Draining/stopped servers contributed valid samples while running;
      // the warehouse window naturally ages them out.
      const auto samples =
          warehouse_.server_window(vm->name(), params_.window, now);
      if (!samples.empty()) {
        any_samples = true;
        if (samples.back().t_end > newest) newest = samples.back().t_end;
      }
      scatter.add_all(samples);
    }
    // The staleness guard only applies to tiers that have data in the
    // window: a tier with none (not yet monitored, or blacked out longer
    // than the whole window) has nothing to hold — estimate() bails anyway.
    if (any_samples && params_.max_staleness > 0.0 &&
        now - newest > params_.max_staleness) {
      // Monitoring dropout: the window's newest sample predates the gap.
      // Re-estimating from the shrinking remainder would bias the curve, so
      // the cached range stays authoritative until samples flow again.
      ++stale_skips_;
      continue;
    }
    auto range = estimator_.estimate(scatter);
    if (!range) continue;
    // A window that never left the plateau (no descending stage) is
    // right-censored: its Q_lower reflects recent *demand*, not the server's
    // capacity knee. Capping soft resources from such a window would
    // throttle the next surge, so only fully-observed curves (Fig 4: all
    // three stages) update the recommendation; otherwise the cached range —
    // learned from the last genuine overload — stays authoritative.
    if (!range->descending_observed) continue;
    auto it = cache_.find(tier.name());
    if (it != cache_.end() && params_.smoothing < 1.0) {
      const double a = params_.smoothing;
      auto blend = [a](int fresh, int cached) {
        return static_cast<int>(std::lround(a * fresh + (1.0 - a) * cached));
      };
      range->q_lower = blend(range->q_lower, it->second.q_lower);
      range->q_upper = blend(range->q_upper, it->second.q_upper);
      range->optimal = range->q_lower;
      // A blend involving a censored edge stays censored (safe side).
      range->q_upper_censored =
          range->q_upper_censored || it->second.q_upper_censored;
      range->tp_max =
          a * range->tp_max + (1.0 - a) * it->second.tp_max;
    }
    cache_[tier.name()] = *range;
    history_.push_back({now, tier.name(), *range});
  }
}

}  // namespace conscale
