// Response-time-regulating soft-resource policies (controller zoo). Both
// close the loop on the client-perceived 1 s mean response time from the
// Metrics Warehouse and actuate the adapted tiers' per-server concurrency
// through the same apply_optima arithmetic DCM/ConScale use — so the
// experimental variable against the paper's frameworks is purely *what
// signal* drives the soft resources (RT error vs. profiled/estimated
// optimal concurrency), not how allocations are applied.
//
// After Venkatarama & Sekaran (arXiv:1011.1738), who regulate Apache's
// MaxClients: response time above the setpoint means the concurrency limit
// admits too much multithreading contention and must come down; below the
// setpoint the limit can grow back toward the configured maximum.
#pragma once

#include <string>

#include "conscale/agents.h"
#include "conscale/policy.h"
#include "conscale/zoo/zoo_params.h"
#include "metrics/warehouse.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale::zoo {

/// Velocity-form PI on the normalized RT error
///   e = (target - rt) / target
/// with the integral living in the allocation itself:
///   a_k = clamp(a_{k-1} + kp (e_k - e_{k-1}) + ki e_k).
/// Anti-windup is conditional integration (PiPolicyParams::
/// conditional_integration, default on): the ki term is skipped while the
/// clamp is saturated in the error's direction or while an adapted tier is
/// still provisioning VMs (actuator lag — the regime that produced the
/// original zoo grid's 9.5 s dual_phase p99).
class PiResponseTimePolicy final : public SoftResourcePolicy {
 public:
  PiResponseTimePolicy(topology::ServiceGraph& system, SoftwareAgent& agent,
                       const MetricsWarehouse& warehouse,
                       SoftAdaptTargets targets, PiPolicyParams params);

  std::string name() const override { return "PI-RT"; }
  void adapt(SimTime now) override;

 private:
  /// True while any adapted tier still has VMs in flight — the actuator-lag
  /// window conditional integration suspends the ki term in.
  bool targets_provisioning() const;

  topology::ServiceGraph& system_;
  SoftwareAgent& agent_;
  const MetricsWarehouse& warehouse_;
  SoftAdaptTargets targets_;
  PiPolicyParams params_;
  double allocation_ = 0.0;  ///< continuous control variable [threads/server]
  double prev_error_ = 0.0;
  SimTime last_sample_t_ = -1.0;  ///< dedups adapt() calls within one second
  bool primed_ = false;
};

/// 9-rule Mamdani table on (error, delta-error), triangular
/// Negative/Zero/Positive memberships, singleton outputs
/// {-large, -small, 0, +small, +large}, weighted-average defuzzification.
class FuzzyResponseTimePolicy final : public SoftResourcePolicy {
 public:
  FuzzyResponseTimePolicy(topology::ServiceGraph& system, SoftwareAgent& agent,
                          const MetricsWarehouse& warehouse,
                          SoftAdaptTargets targets, FuzzyPolicyParams params);

  std::string name() const override { return "Fuzzy-RT"; }
  void adapt(SimTime now) override;

 private:
  double defuzzify_step(double error, double delta_error) const;

  topology::ServiceGraph& system_;
  SoftwareAgent& agent_;
  const MetricsWarehouse& warehouse_;
  SoftAdaptTargets targets_;
  FuzzyPolicyParams params_;
  double allocation_ = 0.0;
  double prev_error_ = 0.0;
  SimTime last_sample_t_ = -1.0;
  bool primed_ = false;
};

}  // namespace conscale::zoo
