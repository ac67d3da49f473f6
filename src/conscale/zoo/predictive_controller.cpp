#include "conscale/zoo/predictive_controller.h"

#include <algorithm>
#include <cmath>

#include "topology/service_graph.h"

namespace conscale::zoo {

namespace {
constexpr double kMinLevel = 1e-6;  ///< guards the growth-ratio division
}

PredictiveController::PredictiveController(Simulation& sim,
                                           topology::ServiceGraph& system,
                                           const MetricsWarehouse& warehouse,
                                           HardwareAgent& hw,
                                           PredictiveControllerParams params,
                                           SoftResourcePolicy* policy,
                                           SimDuration adapt_period)
    : sim_(sim), system_(system), warehouse_(warehouse), hw_(hw),
      params_(params), policy_(policy),
      cooldown_until_(system.tier_count(), -1.0) {
  // Soft loop, as in DecisionController: adapt when a scale-out VM comes
  // online (bootstrap VMs at t=0 are not scaling actions).
  if (policy_) {
    system_.add_vm_ready_callback([this](std::size_t, Vm& vm) {
      if (!vm.is_bootstrap()) adapt(sim_.now());
    });
  }
  step_task_ = std::make_unique<PeriodicTask>(
      sim_, params_.period, [this](SimTime now) { step(now); });
  if (policy_ && adapt_period > 0.0) {
    adapt_task_ = std::make_unique<PeriodicTask>(
        sim_, adapt_period, [this](SimTime now) { adapt(now); });
  }
}

void PredictiveController::adapt(SimTime now) {
  ++adapts_;
  policy_->adapt(now);
}

void PredictiveController::step(SimTime now) {
  const auto& series = warehouse_.system_series();
  if (series.empty()) return;
  const double throughput = series.back().throughput;
  if (!primed_) {
    level_ = throughput;
    trend_ = 0.0;
    primed_ = true;
    return;
  }
  const double prev_level = level_;
  level_ = params_.alpha * throughput +
           (1.0 - params_.alpha) * (level_ + trend_);
  trend_ = params_.beta * (level_ - prev_level) +
           (1.0 - params_.beta) * trend_;
  if (level_ < kMinLevel) return;  // no traffic yet: nothing to forecast
  ++forecasts_;
  // Trend is per decision period; project it `horizon` seconds out.
  const double steps = params_.horizon / params_.period;
  const double forecast = std::max(0.0, level_ + trend_ * steps);
  const double growth = forecast / level_;
  for (std::size_t i = 0; i < system_.tier_count(); ++i) {
    if (now < cooldown_until_[i]) continue;
    TierGroup& tier = system_.tier(i);
    const TierSample sample = warehouse_.latest_tier(tier.name());
    if (sample.running_vms == 0) continue;
    // Forecast CPU demand in whole-VM units, assuming utilization scales
    // with the completion rate.
    const double load = sample.avg_cpu_utilization *
                        static_cast<double>(sample.running_vms) * growth;
    const double billed = static_cast<double>(tier.billed_vms());
    const double desired = std::ceil(load / params_.target_utilization);
    if (desired > billed) {
      if (hw_.scale_out(i)) {
        ++scale_outs_;
        cooldown_until_[i] = now + params_.cooldown;
        // The soft adapt lands when the VM is ready (vm-ready hook).
      }
    } else if (billed > 1.0 &&
               load / (billed - 1.0) <
                   params_.target_utilization * params_.scale_in_fraction) {
      // Even one VM short, the forecast sits well inside the target band.
      if (hw_.scale_in(i)) {
        ++scale_ins_;
        cooldown_until_[i] = now + params_.cooldown;
        // Capacity already shrank: re-fit the soft resources now.
        if (policy_) adapt(now);
      }
    }
  }
}

ControllerCounters PredictiveController::counters() const {
  ControllerCounters counters = {{"forecasts", forecasts_},
                                 {"scale_ins", scale_ins_},
                                 {"scale_outs", scale_outs_}};
  if (policy_) counters["adapts"] = adapts_;
  return counters;
}

}  // namespace conscale::zoo
