#include "conscale/zoo/zoo.h"

#include <memory>

#include "conscale/framework.h"
#include "conscale/registry.h"
#include "conscale/zoo/predictive_controller.h"
#include "conscale/zoo/rt_policies.h"
#include "conscale/zoo/vertical_controller.h"

namespace conscale::zoo {

namespace {

ControllerSpec pi_spec() {
  return ControllerSpec{
      .name = "pi",
      .display_name = "PI-RT",
      .description = "threshold hardware scaling plus a velocity-form PI "
                     "loop regulating mean RT via soft concurrency",
      .reference = "Venkatarama & Sekaran, arXiv:1011.1738",
      .configure =
          [](const ControllerOptions& options, FrameworkConfig& config) {
            OptionReader reader("pi", options);
            reader.get("target_ms", config.pi.target_rt_ms);
            reader.get("kp", config.pi.kp);
            reader.get("ki", config.pi.ki);
            reader.get("min_threads", config.pi.min_threads);
            reader.get("max_threads", config.pi.max_threads);
            reader.get("anti_windup", config.pi.conditional_integration);
            reader.finish();
          },
      .build =
          [](const ControllerBuildContext& ctx) {
            FrameworkParts parts;
            parts.policy = std::make_unique<PiResponseTimePolicy>(
                ctx.system, ctx.sw, ctx.warehouse, ctx.config.targets,
                ctx.config.pi);
            parts.controller = std::make_unique<DecisionController>(
                ctx.sim, ctx.system, ctx.warehouse, ctx.hw, ctx.sw,
                *parts.policy, ctx.config.controller);
            return parts;
          },
  };
}

ControllerSpec fuzzy_spec() {
  return ControllerSpec{
      .name = "fuzzy",
      .display_name = "Fuzzy-RT",
      .description = "threshold hardware scaling plus a 9-rule fuzzy "
                     "controller stepping soft concurrency on RT error",
      .reference = "Venkatarama & Sekaran, arXiv:1011.1738",
      .configure =
          [](const ControllerOptions& options, FrameworkConfig& config) {
            OptionReader reader("fuzzy", options);
            reader.get("target_ms", config.fuzzy.target_rt_ms);
            reader.get("error_scale", config.fuzzy.error_scale);
            reader.get("step_large", config.fuzzy.step_large);
            reader.get("step_small", config.fuzzy.step_small);
            reader.get("min_threads", config.fuzzy.min_threads);
            reader.get("max_threads", config.fuzzy.max_threads);
            reader.finish();
          },
      .build =
          [](const ControllerBuildContext& ctx) {
            FrameworkParts parts;
            parts.policy = std::make_unique<FuzzyResponseTimePolicy>(
                ctx.system, ctx.sw, ctx.warehouse, ctx.config.targets,
                ctx.config.fuzzy);
            parts.controller = std::make_unique<DecisionController>(
                ctx.sim, ctx.system, ctx.warehouse, ctx.hw, ctx.sw,
                *parts.policy, ctx.config.controller);
            return parts;
          },
  };
}

ControllerSpec vertical_spec() {
  return ControllerSpec{
      .name = "vertical",
      .display_name = "Vertical-Robust",
      .description = "threshold scaling plus a robust per-tier CPU "
                     "entitlement loop tracking usage + headroom",
      .reference = "Makridis et al., arXiv:1811.05533",
      .configure =
          [](const ControllerOptions& options, FrameworkConfig& config) {
            OptionReader reader("vertical", options);
            reader.get("target_util", config.vertical.target_utilization);
            reader.get("min_entitlement", config.vertical.min_entitlement);
            reader.get("max_entitlement", config.vertical.max_entitlement);
            reader.get("smoothing", config.vertical.smoothing);
            reader.get("deadband", config.vertical.deadband);
            reader.get("period", config.vertical.period);
            reader.finish();
          },
      .build =
          [](const ControllerBuildContext& ctx) {
            FrameworkParts parts;
            // Soft resources ride the EC2 baseline (static); the controller
            // adds the vertical dimension on top of threshold scaling.
            parts.policy = std::make_unique<Ec2AutoScalingPolicy>();
            parts.controller = std::make_unique<VerticalEntitlementController>(
                ctx.sim, ctx.system, ctx.warehouse, ctx.hw, ctx.sw,
                *parts.policy, ctx.config.controller, ctx.config.vertical);
            return parts;
          },
  };
}

ControllerSpec holt_winters_spec() {
  return ControllerSpec{
      .name = "holt-winters",
      .display_name = "HoltWinters-Pred",
      .description = "proactive scaling on a level+trend forecast of the "
                     "completion rate, ahead of the VM prep delay",
      .reference = "Qu, Calheiros & Buyya, arXiv:1609.09224",
      .configure =
          [](const ControllerOptions& options, FrameworkConfig& config) {
            OptionReader reader("holt-winters", options);
            reader.get("alpha", config.predictive.alpha);
            reader.get("beta", config.predictive.beta);
            reader.get("period", config.predictive.period);
            reader.get("horizon", config.predictive.horizon);
            reader.get("target_util", config.predictive.target_utilization);
            reader.get("scale_in_fraction",
                       config.predictive.scale_in_fraction);
            reader.get("cooldown", config.predictive.cooldown);
            reader.finish();
          },
      .build =
          [](const ControllerBuildContext& ctx) {
            FrameworkParts parts;
            parts.controller = std::make_unique<PredictiveController>(
                ctx.sim, ctx.system, ctx.warehouse, ctx.hw,
                ctx.config.predictive);
            return parts;
          },
  };
}

ControllerSpec hybrid_spec() {
  return ControllerSpec{
      .name = "hybrid",
      .display_name = "Hybrid-PredSCT",
      .description = "Holt-Winters forecast hardware scaling combined with "
                     "ConScale's online SCT soft-resource adaptation",
      .reference = "Qu et al., arXiv:1609.09224 + Liu et al., IPPS'20",
      .configure =
          [](const ControllerOptions& options, FrameworkConfig& config) {
            OptionReader reader("hybrid", options);
            reader.get("alpha", config.hybrid.forecast.alpha);
            reader.get("beta", config.hybrid.forecast.beta);
            reader.get("period", config.hybrid.forecast.period);
            reader.get("horizon", config.hybrid.forecast.horizon);
            reader.get("target_util",
                       config.hybrid.forecast.target_utilization);
            reader.get("scale_in_fraction",
                       config.hybrid.forecast.scale_in_fraction);
            reader.get("cooldown", config.hybrid.forecast.cooldown);
            reader.get("adapt_period", config.hybrid.periodic_adapt);
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
            parts.controller = std::make_unique<PredictiveController>(
                ctx.sim, ctx.system, ctx.warehouse, ctx.hw,
                ctx.config.hybrid.forecast, parts.policy.get(),
                ctx.config.hybrid.periodic_adapt);
            return parts;
          },
  };
}

}  // namespace

void register_zoo_controllers(ControllerRegistry& registry) {
  registry.register_spec(pi_spec());
  registry.register_spec(fuzzy_spec());
  registry.register_spec(vertical_spec());
  registry.register_spec(holt_winters_spec());
  registry.register_spec(hybrid_spec());
}

}  // namespace conscale::zoo
