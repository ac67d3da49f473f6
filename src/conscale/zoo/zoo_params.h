// Tuning knobs for the controller zoo (src/conscale/zoo). These live in
// their own dependency-light header so FrameworkConfig can embed them
// without pulling the controller implementations into every experiment
// translation unit. Defaults are calibrated on the six-trace grid at the
// paper's scale (see EXPERIMENTS.md, "controller zoo").
#pragma once

#include <cstddef>
#include <vector>

#include "common/time_units.h"

namespace conscale {

/// PI response-time regulator (Venkatarama & Sekaran, arXiv:1011.1738):
/// velocity-form PI on the normalized end-to-end response-time error,
/// actuating the adapted tiers' per-server concurrency the same way
/// DCM/ConScale apply their optima. RT above target shrinks the allocation
/// (shed multithreading contention); RT below target grows it back.
struct PiPolicyParams {
  double target_rt_ms = 250.0;  ///< setpoint for the 1 s mean RT
  double kp = 18.0;             ///< threads per unit normalized error
  double ki = 4.0;              ///< threads per unit error-integral (per adapt)
  int min_threads = 4;          ///< actuation clamp (keeps the pipe open)
  int max_threads = 400;
  /// Conditional integration (anti-windup). The velocity form keeps the
  /// integral inside the clamped allocation, but two regimes still wind it
  /// up: errors pushing further into a saturated clamp, and RT-over-target
  /// errors during VM-provisioning windows — there the excursion reflects
  /// missing hardware, not excess concurrency, and integrating it shrinks
  /// the pools exactly when the tier needs them open, then keeps them
  /// pinned after the VMs land (the 9.5 s dual_phase p99 of the original
  /// zoo grid). When set, the ki term is skipped in both regimes.
  bool conditional_integration = true;
};

/// Fuzzy response-time regulator (Venkatarama & Sekaran): a 9-rule Mamdani
/// table on (error, delta-error) with triangular memberships and singleton
/// outputs, defuzzified by weighted average into a concurrency step.
struct FuzzyPolicyParams {
  double target_rt_ms = 250.0;
  /// Normalized error magnitude at which the Negative/Positive memberships
  /// saturate (1.0 = |RT - target| equal to the target itself).
  double error_scale = 1.0;
  double step_large = 14.0;  ///< output singleton for the LARGE sets [threads]
  double step_small = 5.0;   ///< output singleton for the SMALL sets [threads]
  int min_threads = 4;
  int max_threads = 400;
};

/// Robust vertical scaler (Makridis et al., arXiv:1811.05533): tracks each
/// tier's CPU *entitlement* (the per-VM cpu-speed window) so measured usage
/// sits at `target_utilization` of the entitled capacity — usage plus
/// headroom, smoothed so a single noisy sample cannot yank the allocation.
/// Horizontal scaling stays on the shared threshold rule; the entitlement
/// loop trims the slack horizontal scaling leaves behind.
struct VerticalControllerParams {
  double target_utilization = 0.65;
  double min_entitlement = 0.25;  ///< floor: never below a quarter core
  double max_entitlement = 1.0;   ///< full nominal speed
  double smoothing = 0.5;         ///< first-order lag toward the new target
  double deadband = 0.05;         ///< |change| below this is not actuated
  SimDuration period = 5.0;       ///< entitlement review cadence [s]
  /// Tier indices whose entitlement is managed (standard 3-tier layout:
  /// 1 = app, 2 = db; the web tier stays at full speed).
  std::vector<std::size_t> tiers = {1, 2};
};

/// Holt-Winters predictive autoscaler (Qu/Calheiros/Buyya taxonomy,
/// arXiv:1609.09224, the proactive class): double-exponential smoothing
/// (level + trend) on the observed completion rate, forecast `horizon`
/// seconds ahead — past the VM preparation delay — and scale each tier to
/// the forecast *before* the ramp arrives instead of after it.
struct PredictiveControllerParams {
  double alpha = 0.35;  ///< level smoothing
  double beta = 0.15;   ///< trend smoothing
  SimDuration period = 5.0;   ///< forecast/decision cadence [s]
  SimDuration horizon = 25.0; ///< look-ahead [s]; > vm_prep_delay pays off
  double target_utilization = 0.60;  ///< capacity headroom at the forecast
  /// Scale in only when the forecast load sits below this fraction of the
  /// target band — hysteresis against trading VMs on forecast noise.
  double scale_in_fraction = 0.55;
  SimDuration cooldown = 10.0;  ///< per-tier quiet period after any action
};

/// Hybrid proactive/adaptive autoscaler: the Holt-Winters forecast drives
/// the hardware loop while ConScale's SCT-backed policy re-fits soft
/// resources at every hardware action and on a slow periodic cadence —
/// the zoo's two complementary halves composed (a PredictiveController with
/// a policy attached; see predictive_controller.h).
struct HybridParams {
  PredictiveControllerParams forecast;  ///< hardware-loop knobs, shared
  /// Periodic soft-adapt cadence [s]; 0 = adapt at hardware actions only.
  /// Matches the builtin frameworks' ControllerConfig::periodic_adapt
  /// default wiring (make_framework_config uses 10 s).
  SimDuration periodic_adapt = 10.0;
};

}  // namespace conscale
