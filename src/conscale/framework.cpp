#include "conscale/framework.h"

#include <algorithm>
#include <stdexcept>

namespace conscale {

ScalingFramework::ScalingFramework(Simulation& sim,
                                   topology::ServiceGraph& system,
                                   MetricsWarehouse& warehouse,
                                   const std::string& controller_ref,
                                   FrameworkConfig config) {
  const ControllerRef ref = parse_controller_ref(controller_ref);
  const ControllerSpec& spec = ControllerRegistry::global().at(ref.name);
  key_ = spec.name;
  name_ = spec.display_name;
  if (!ref.options.empty()) {
    if (!spec.configure) {
      throw std::runtime_error("controller '" + spec.name +
                               "' takes no options (reference was '" +
                               controller_ref + "')");
    }
    spec.configure(ref.options, config);
  }
  hw_ = std::make_unique<HardwareAgent>(sim, system);
  sw_ = std::make_unique<SoftwareAgent>(sim, system);
  FrameworkParts parts = spec.build(
      ControllerBuildContext{sim, system, warehouse, *hw_, *sw_, config});
  if (!parts.controller) {
    throw std::runtime_error("controller '" + spec.name +
                             "': builder returned no controller");
  }
  estimator_ = std::move(parts.estimator);
  policy_ = std::move(parts.policy);
  controller_ = std::move(parts.controller);
}

std::vector<ScalingEvent> ScalingFramework::all_events() const {
  std::vector<ScalingEvent> events = hw_->events();
  const auto& soft = sw_->events();
  events.insert(events.end(), soft.begin(), soft.end());
  std::stable_sort(events.begin(), events.end(),
                   [](const ScalingEvent& a, const ScalingEvent& b) {
                     return a.t < b.t;
                   });
  return events;
}

namespace detail {

void register_builtin_controllers(ControllerRegistry& registry) {
  registry.register_spec(ControllerSpec{
      .name = "ec2",
      .display_name = "EC2-AutoScaling",
      .description = "reactive threshold hardware scaling; soft resources "
                     "stay at their static initial allocation",
      .reference = "paper baseline (Amazon EC2 Auto Scaling)",
      .configure = nullptr,
      .build =
          [](const ControllerBuildContext& ctx) {
            FrameworkParts parts;
            parts.policy = std::make_unique<Ec2AutoScalingPolicy>();
            parts.controller = std::make_unique<DecisionController>(
                ctx.sim, ctx.system, ctx.warehouse, ctx.hw, ctx.sw,
                *parts.policy, ctx.config.controller);
            return parts;
          },
  });
  registry.register_spec(ControllerSpec{
      .name = "dcm",
      .display_name = "DCM",
      .description = "threshold scaling plus offline pre-profiled optimal "
                     "concurrency (stale when conditions drift)",
      .reference = "Wang et al., TPDS'18",
      .configure = nullptr,
      .build =
          [](const ControllerBuildContext& ctx) {
            FrameworkParts parts;
            parts.policy = std::make_unique<DcmPolicy>(
                ctx.system, ctx.sw, ctx.config.targets,
                ctx.config.dcm_profile);
            parts.controller = std::make_unique<DecisionController>(
                ctx.sim, ctx.system, ctx.warehouse, ctx.hw, ctx.sw,
                *parts.policy, ctx.config.controller);
            return parts;
          },
  });
  registry.register_spec(ControllerSpec{
      .name = "conscale",
      .display_name = "ConScale",
      .description = "threshold scaling plus the online SCT concurrency "
                     "estimator (the paper's contribution)",
      .reference = "Liu et al., IPPS'20",
      .configure =
          [](const ControllerOptions& options, FrameworkConfig& config) {
            OptionReader reader("conscale", options);
            reader.get("headroom", config.conscale_headroom);
            reader.finish();
          },
      .build =
          [](const ControllerBuildContext& ctx) {
            FrameworkParts parts;
            parts.estimator = std::make_unique<ConcurrencyEstimatorService>(
                ctx.sim, ctx.system, ctx.warehouse, ctx.config.estimator);
            parts.policy = std::make_unique<ConScalePolicy>(
                ctx.system, ctx.sw, ctx.config.targets, *parts.estimator,
                ctx.config.conscale_headroom);
            parts.controller = std::make_unique<DecisionController>(
                ctx.sim, ctx.system, ctx.warehouse, ctx.hw, ctx.sw,
                *parts.policy, ctx.config.controller);
            return parts;
          },
  });
}

}  // namespace detail

}  // namespace conscale
