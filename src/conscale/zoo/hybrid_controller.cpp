#include "conscale/zoo/hybrid_controller.h"

#include <algorithm>
#include <cmath>

#include "topology/service_graph.h"

namespace conscale::zoo {

namespace {
constexpr double kMinLevel = 1e-6;  ///< guards the growth-ratio division
}

HybridController::HybridController(Simulation& sim,
                                   topology::ServiceGraph& system,
                                   const MetricsWarehouse& warehouse,
                                   HardwareAgent& hw,
                                   SoftResourcePolicy& policy,
                                   HybridControllerParams params)
    : sim_(sim), system_(system), warehouse_(warehouse), hw_(hw),
      policy_(policy), params_(params),
      cooldown_until_(system.tier_count(), -1.0) {
  // Soft loop, mirroring DecisionController: adapt when a scale-out VM
  // comes online (bootstrap VMs at t=0 are not scaling actions), and on a
  // slow periodic cadence so drift between hardware actions is caught too.
  system_.add_vm_ready_callback([this](std::size_t, Vm& vm) {
    if (vm.is_bootstrap()) return;
    ++adapts_;
    policy_.adapt(sim_.now());
  });
  step_task_ = std::make_unique<PeriodicTask>(
      sim_, params_.forecast.period, [this](SimTime now) { step(now); });
  if (params_.periodic_adapt > 0.0) {
    adapt_task_ = std::make_unique<PeriodicTask>(
        sim_, params_.periodic_adapt, [this](SimTime now) {
          ++adapts_;
          policy_.adapt(now);
        });
  }
}

void HybridController::step(SimTime now) {
  // Hardware loop: PredictiveController's Holt-Winters forecast, verbatim
  // (divergence between the two would make "hybrid vs holt-winters" grid
  // comparisons measure the wrong thing).
  const PredictiveControllerParams& fc = params_.forecast;
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
  level_ = fc.alpha * throughput + (1.0 - fc.alpha) * (level_ + trend_);
  trend_ = fc.beta * (level_ - prev_level) + (1.0 - fc.beta) * trend_;
  if (level_ < kMinLevel) return;  // no traffic yet: nothing to forecast
  ++forecasts_;
  const double steps = fc.horizon / fc.period;
  const double forecast = std::max(0.0, level_ + trend_ * steps);
  const double growth = forecast / level_;
  for (std::size_t i = 0; i < system_.tier_count(); ++i) {
    if (now < cooldown_until_[i]) continue;
    TierGroup& tier = system_.tier(i);
    const TierSample sample = warehouse_.latest_tier(tier.name());
    if (sample.running_vms == 0) continue;
    const double load = sample.avg_cpu_utilization *
                        static_cast<double>(sample.running_vms) * growth;
    const double billed = static_cast<double>(tier.billed_vms());
    const double desired = std::ceil(load / fc.target_utilization);
    if (desired > billed) {
      if (hw_.scale_out(i)) {
        ++scale_outs_;
        cooldown_until_[i] = now + fc.cooldown;
        // Soft adapt lands when the VM is ready (vm-ready hook above).
      }
    } else if (billed > 1.0 &&
               load / (billed - 1.0) <
                   fc.target_utilization * fc.scale_in_fraction) {
      if (hw_.scale_in(i)) {
        ++scale_ins_;
        cooldown_until_[i] = now + fc.cooldown;
        // Capacity already shrank: re-fit the soft resources immediately,
        // as DecisionController does on scale-in.
        ++adapts_;
        policy_.adapt(now);
      }
    }
  }
}

ControllerCounters HybridController::counters() const {
  return {{"adapts", adapts_},
          {"forecasts", forecasts_},
          {"scale_ins", scale_ins_},
          {"scale_outs", scale_outs_}};
}

}  // namespace conscale::zoo
