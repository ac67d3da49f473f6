#include "conscale/policy.h"

#include <algorithm>
#include <cmath>

#include "topology/service_graph.h"

namespace conscale {

void apply_optima(
    topology::ServiceGraph& system, SoftwareAgent& agent,
    const SoftAdaptTargets& targets,
    const std::function<std::optional<int>(std::size_t)>& optimum_for_tier) {
  for (std::size_t tier : targets.thread_adapt_tiers) {
    if (auto optimum = optimum_for_tier(tier)) {
      agent.set_tier_threads(tier,
                             static_cast<std::size_t>(std::max(*optimum, 1)));
    }
  }
  for (const auto& [upstream, downstream] : targets.conn_adapt) {
    auto optimum = optimum_for_tier(downstream);
    if (!optimum) continue;
    const auto n_down =
        std::max<std::size_t>(system.tier(downstream).running_vms(), 1);
    const auto n_up =
        std::max<std::size_t>(system.tier(upstream).running_vms(), 1);
    // Per-upstream-server pool so that the sum across upstream replicas
    // equals optimum × downstream replicas (§V: after adding a Tomcat, the
    // per-Tomcat pool must shrink or MySQL concurrency doubles).
    const double per_server = static_cast<double>(*optimum) *
                              static_cast<double>(n_down) /
                              static_cast<double>(n_up);
    agent.set_tier_downstream_pool(
        upstream,
        static_cast<std::size_t>(std::max(std::lround(per_server), 1L)));
  }
}

void DcmPolicy::adapt(SimTime) {
  apply_optima(system_, agent_, targets_,
               [this](std::size_t tier) -> std::optional<int> {
                 auto it = profile_.tier_optimal_concurrency.find(tier);
                 if (it == profile_.tier_optimal_concurrency.end()) {
                   return std::nullopt;
                 }
                 return it->second;
               });
}

void ConScalePolicy::adapt(SimTime) {
  // Pull the freshest window before recommending — the whole point is that
  // the estimate reflects the *current* runtime environment.
  estimator_.refresh_now();
  apply_optima(system_, agent_, targets_,
               [this](std::size_t tier) -> std::optional<int> {
                 auto range =
                     estimator_.tier_estimate(system_.tier(tier).name());
                 if (!range) return std::nullopt;
                 // Pad above Q_lower for estimation noise. Q_upper caps the
                 // padding only when it is a *measured* knee-top; a censored
                 // edge (observations simply stop there) must not squeeze
                 // the headroom — an allocation pinned slightly below the
                 // true knee hides demand from the CPU-threshold scaler and
                 // deadlocks the hardware loop.
                 double padded = headroom_ * range->optimal;
                 if (!range->q_upper_censored) {
                   padded = std::min(padded,
                                     static_cast<double>(range->q_upper));
                 }
                 return static_cast<int>(std::lround(padded));
               });
}

}  // namespace conscale
