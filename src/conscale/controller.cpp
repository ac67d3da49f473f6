#include "conscale/controller.h"

#include "topology/service_graph.h"

namespace conscale {

DecisionController::DecisionController(Simulation& sim,
                                       topology::ServiceGraph& system,
                                       const MetricsWarehouse& warehouse,
                                       HardwareAgent& hw, SoftwareAgent& sw,
                                       SoftResourcePolicy& policy,
                                       ControllerConfig config)
    : sim_(sim), system_(system), warehouse_(warehouse), hw_(hw), sw_(sw),
      policy_(policy), config_(config) {
  rules_.reserve(system_.tier_count());
  for (std::size_t i = 0; i < system_.tier_count(); ++i) {
    rules_.emplace_back(config_.rule);
  }
  // When a scale-out VM comes online: start that tier's cooldown and let the
  // policy adapt soft resources to the new topology (§IV: "once the hardware
  // scaling is done"). Bootstrap VMs coming up at t=0 are not scaling
  // actions and must not start cooldowns or trigger adaptation.
  system_.add_vm_ready_callback([this](std::size_t tier_index, Vm& vm) {
    if (vm.is_bootstrap()) return;
    rules_[tier_index].on_action(sim_.now());
    ++adapts_;
    policy_.adapt(sim_.now());
  });
  tick_task_ = std::make_unique<PeriodicTask>(
      sim_, config_.tick, [this](SimTime now) { tick(now); });
  if (config_.periodic_adapt > 0.0) {
    adapt_task_ = std::make_unique<PeriodicTask>(
        sim_, config_.periodic_adapt, [this](SimTime now) {
          ++adapts_;
          policy_.adapt(now);
        });
  }
}

ControllerCounters DecisionController::counters() const {
  return {{"adapts", adapts_},
          {"scale_ins", scale_ins_},
          {"scale_outs", scale_outs_},
          {"stale_skips", stale_skips_}};
}

void DecisionController::tick(SimTime now) {
  for (std::size_t i = 0; i < system_.tier_count(); ++i) {
    TierGroup& tier = system_.tier(i);
    const TierSample sample = warehouse_.latest_tier(tier.name());
    if (config_.metric_staleness_limit > 0.0 &&
        now - sample.t > config_.metric_staleness_limit) {
      // Monitoring dropout: the newest sample is too old to act on. Holding
      // is safer than replaying it — a frozen utilization reading would
      // otherwise keep triggering the same decision every tick.
      ++stale_skips_;
      continue;
    }
    const bool blocked = tier.provisioning_vms() > 0;
    const ScalingDirection direction =
        rules_[i].evaluate(now, sample.avg_cpu_utilization, blocked);
    switch (direction) {
      case ScalingDirection::kOut:
        if (hw_.scale_out(i)) {
          ++scale_outs_;
          rules_[i].on_action(now);
          // The adapt happens when the VM becomes Running (vm-ready hook).
        }
        break;
      case ScalingDirection::kIn:
        if (hw_.scale_in(i)) {
          ++scale_ins_;
          rules_[i].on_action(now);
          ++adapts_;
          policy_.adapt(now);
        }
        break;
      case ScalingDirection::kNone:
        break;
    }
  }
}

}  // namespace conscale
