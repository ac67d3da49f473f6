// ScalingFramework: the per-run factory/bundle for a scaling framework.
// Given a controller reference ("conscale", "pi(target_ms=200)") it looks up
// the ControllerSpec in the registry, applies any reference options onto the
// run's FrameworkConfig, wires up the two actuation agents, and lets the
// spec's builder assemble the estimator/policy/controller parts. Experiments
// construct one of these per run; the old closed `FrameworkKind` enum is
// gone — frameworks are registry names now (see conscale/registry.h).
#pragma once

#include <memory>
#include <string>

#include "conscale/agents.h"
#include "conscale/controller.h"
#include "conscale/estimator_service.h"
#include "conscale/policy.h"
#include "conscale/registry.h"
#include "conscale/zoo/zoo_params.h"
#include "metrics/warehouse.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale {

/// The union of every controller's tuning knobs, defaulted sensibly. A
/// spec's `configure` hook overlays reference options onto the relevant
/// members; its builder reads only the members it cares about.
struct FrameworkConfig {
  ControllerConfig controller;
  EstimatorServiceParams estimator;  ///< used by ConScale only
  SoftAdaptTargets targets;          ///< concurrency-aware policies
  DcmProfile dcm_profile;            ///< used by DCM only
  double conscale_headroom = 1.4;    ///< see ConScalePolicy
  // --- controller zoo (src/conscale/zoo) ---
  PiPolicyParams pi;
  FuzzyPolicyParams fuzzy;
  VerticalControllerParams vertical;
  PredictiveControllerParams predictive;
  HybridParams hybrid;
};

class ScalingFramework {
 public:
  /// `controller_ref` is a registry reference — "ec2", "conscale",
  /// "pi(target_ms=250)", ... Throws std::runtime_error (listing the
  /// registered controllers) on an unknown name, malformed reference
  /// syntax, or invalid options.
  ScalingFramework(Simulation& sim, topology::ServiceGraph& system,
                   MetricsWarehouse& warehouse,
                   const std::string& controller_ref, FrameworkConfig config);

  /// Registry key of the spec this framework was built from ("conscale").
  const std::string& key() const { return key_; }
  /// Display name for reports ("ConScale").
  const std::string& name() const { return name_; }
  HardwareAgent& hardware_agent() { return *hw_; }
  SoftwareAgent& software_agent() { return *sw_; }
  Controller& controller() { return *controller_; }
  const Controller& controller() const { return *controller_; }
  /// The soft-resource policy, or null for controllers that manage soft
  /// resources themselves (or not at all).
  SoftResourcePolicy* policy() { return policy_.get(); }
  /// Null unless the controller runs an online estimator (ConScale).
  ConcurrencyEstimatorService* estimator_service() { return estimator_.get(); }

  /// Hardware + soft actuation events merged and time-sorted.
  std::vector<ScalingEvent> all_events() const;

 private:
  std::string key_;
  std::string name_;
  std::unique_ptr<HardwareAgent> hw_;
  std::unique_ptr<SoftwareAgent> sw_;
  // Declaration order is the reference chain: the controller may hold the
  // policy, the policy may hold the estimator. Members destruct in reverse,
  // so dependents go first.
  std::unique_ptr<ConcurrencyEstimatorService> estimator_;
  std::unique_ptr<SoftResourcePolicy> policy_;
  std::unique_ptr<Controller> controller_;
};

namespace detail {
/// Registers the paper's three frameworks ("ec2", "dcm", "conscale") with
/// their historical display names. Called once by the registry constructor;
/// exposed for tests that build a private registry.
void register_builtin_controllers(ControllerRegistry& registry);
}  // namespace detail

}  // namespace conscale
