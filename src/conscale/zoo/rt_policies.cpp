#include "conscale/zoo/rt_policies.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "topology/service_graph.h"

namespace conscale::zoo {

namespace {

/// Seeds the control variable from the live allocation so the first applied
/// value continues the scenario's initial topology instead of jumping.
double initial_allocation(topology::ServiceGraph& system,
                          const SoftAdaptTargets& targets, int fallback) {
  if (!targets.thread_adapt_tiers.empty()) {
    const std::size_t pool =
        system.tier(targets.thread_adapt_tiers.front()).thread_pool_size();
    if (pool > 0) return static_cast<double>(pool);
  }
  return static_cast<double>(fallback);
}

/// The latest client-perceived sample with completions in it, or nullopt.
/// A zero mean RT means nothing completed in the second (e.g. during a
/// total stall) — there is no error signal to act on.
std::optional<SystemSample> latest_rt_sample(
    const MetricsWarehouse& warehouse) {
  const auto& series = warehouse.system_series();
  if (series.empty()) return std::nullopt;
  const SystemSample& sample = series.back();
  if (sample.mean_rt <= 0.0) return std::nullopt;
  return sample;
}

void apply_allocation(topology::ServiceGraph& system, SoftwareAgent& agent,
                      const SoftAdaptTargets& targets, double allocation) {
  const int threads = static_cast<int>(std::lround(allocation));
  apply_optima(system, agent, targets,
               [threads](std::size_t) -> std::optional<int> {
                 return threads;
               });
}

}  // namespace

PiResponseTimePolicy::PiResponseTimePolicy(topology::ServiceGraph& system,
                                           SoftwareAgent& agent,
                                           const MetricsWarehouse& warehouse,
                                           SoftAdaptTargets targets,
                                           PiPolicyParams params)
    : system_(system), agent_(agent), warehouse_(warehouse),
      targets_(std::move(targets)), params_(params) {}

void PiResponseTimePolicy::adapt(SimTime) {
  const auto sample = latest_rt_sample(warehouse_);
  if (!sample) return;
  if (sample->t == last_sample_t_) return;  // one PI update per observation
  last_sample_t_ = sample->t;
  const double target = params_.target_rt_ms * 1e-3;
  const double error = (target - sample->mean_rt) / target;
  if (!primed_) {
    allocation_ = initial_allocation(system_, targets_, params_.max_threads);
    prev_error_ = error;
    primed_ = true;
  }
  double integral = params_.ki * error;
  if (params_.conditional_integration) {
    // Conditional integration (ROADMAP zoo follow-up (a)): drop the ki term
    // when it can only wind up —
    //  * the allocation is pinned at a clamp and the error pushes further
    //    into it (the controller would bank a debt it must unwind before it
    //    can react to the next excursion);
    //  * RT is over target while an adapted tier is still provisioning VMs:
    //    the excursion reflects hardware that has not arrived yet, not
    //    excess concurrency — integrating it shrinks the pools exactly when
    //    the tier needs them open and keeps them pinned after the VMs land.
    const bool at_min =
        error < 0.0 &&
        allocation_ <= static_cast<double>(params_.min_threads);
    const bool at_max =
        error > 0.0 &&
        allocation_ >= static_cast<double>(params_.max_threads);
    const bool actuator_lag = error < 0.0 && targets_provisioning();
    if (at_min || at_max || actuator_lag) integral = 0.0;
  }
  allocation_ += params_.kp * (error - prev_error_) + integral;
  allocation_ = std::clamp(allocation_,
                           static_cast<double>(params_.min_threads),
                           static_cast<double>(params_.max_threads));
  prev_error_ = error;
  apply_allocation(system_, agent_, targets_, allocation_);
}

bool PiResponseTimePolicy::targets_provisioning() const {
  // The error signal is the *system* mean RT, so a provisioning window on
  // any tier pollutes it — scan them all, not just the adapted ones.
  for (std::size_t tier = 0; tier < system_.tier_count(); ++tier) {
    if (system_.tier(tier).provisioning_vms() > 0) return true;
  }
  return false;
}

FuzzyResponseTimePolicy::FuzzyResponseTimePolicy(
    topology::ServiceGraph& system, SoftwareAgent& agent,
    const MetricsWarehouse& warehouse, SoftAdaptTargets targets,
    FuzzyPolicyParams params)
    : system_(system), agent_(agent), warehouse_(warehouse),
      targets_(std::move(targets)), params_(params) {}

double FuzzyResponseTimePolicy::defuzzify_step(double error,
                                               double delta_error) const {
  // Normalize so |error| == error_scale saturates the outer sets.
  const double e = std::clamp(error / params_.error_scale, -1.0, 1.0);
  const double de = std::clamp(delta_error / params_.error_scale, -1.0, 1.0);
  // Triangular memberships over [-1, 1].
  const double e_m[3] = {std::max(0.0, -e), std::max(0.0, 1.0 - std::abs(e)),
                         std::max(0.0, e)};
  const double de_m[3] = {std::max(0.0, -de),
                          std::max(0.0, 1.0 - std::abs(de)),
                          std::max(0.0, de)};
  // Output singletons for the standard anti-diagonal PI rule table
  // (rows: error N/Z/P, cols: delta-error N/Z/P). Negative error = RT over
  // target = shrink concurrency.
  const double large = params_.step_large;
  const double small = params_.step_small;
  const double table[3][3] = {{-large, -small, 0.0},
                              {-small, 0.0, small},
                              {0.0, small, large}};
  double weight_sum = 0.0;
  double value_sum = 0.0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const double w = std::min(e_m[i], de_m[j]);
      weight_sum += w;
      value_sum += w * table[i][j];
    }
  }
  return weight_sum > 0.0 ? value_sum / weight_sum : 0.0;
}

void FuzzyResponseTimePolicy::adapt(SimTime) {
  const auto sample = latest_rt_sample(warehouse_);
  if (!sample) return;
  if (sample->t == last_sample_t_) return;
  last_sample_t_ = sample->t;
  const double target = params_.target_rt_ms * 1e-3;
  const double error = (target - sample->mean_rt) / target;
  if (!primed_) {
    allocation_ = initial_allocation(system_, targets_, params_.max_threads);
    prev_error_ = error;
    primed_ = true;
  }
  allocation_ += defuzzify_step(error, error - prev_error_);
  allocation_ = std::clamp(allocation_,
                           static_cast<double>(params_.min_threads),
                           static_cast<double>(params_.max_threads));
  prev_error_ = error;
  apply_allocation(system_, agent_, targets_, allocation_);
}

}  // namespace conscale::zoo
