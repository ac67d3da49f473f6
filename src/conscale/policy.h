// Soft-resource policies: what differentiates the three evaluated frameworks
// (§V). All three share the same threshold-based *hardware* scaling; they
// differ in what happens to the soft resources when the system scales:
//
//   Ec2AutoScalingPolicy  nothing — soft resources stay at their static
//                         initial allocation (hardware-only scaling).
//   DcmPolicy             applies per-tier optimal-concurrency values from an
//                         *offline* pre-profiled table (Wang et al., TPDS'18).
//                         Correct for the training conditions; silently stale
//                         when the dataset / workload / hardware change.
//   ConScalePolicy        queries the online SCT estimator for each tier's
//                         fresh Q_lower and applies it — the paper's
//                         contribution.
//
// DCM and ConScale share the same application arithmetic (apply_optima);
// the only difference is where the per-tier optimum comes from. That
// isolates offline-vs-online as the experimental variable, exactly as the
// paper frames it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "conscale/agents.h"
#include "conscale/estimator_service.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale {

/// Which soft resources the software agent manages.
struct SoftAdaptTargets {
  /// Tiers whose worker thread pool tracks their own optimal concurrency
  /// (the Tomcat thread pool in the paper's implementation).
  std::vector<std::size_t> thread_adapt_tiers;
  /// (upstream tier, downstream tier) pairs: the upstream tier's per-server
  /// connection pool is sized so the *total* concurrency arriving at the
  /// downstream tier equals the downstream optimum times its replica count
  /// (the Tomcat DB-connection pool restricting MySQL concurrency).
  std::vector<std::pair<std::size_t, std::size_t>> conn_adapt;
};

class SoftResourcePolicy {
 public:
  virtual ~SoftResourcePolicy() = default;
  virtual std::string name() const = 0;
  /// Invoked by the Decision Controller right after a hardware scaling
  /// action completes (and, for ConScale, whenever a fresh recommendation
  /// should be applied).
  virtual void adapt(SimTime now) = 0;
};

/// Shared application arithmetic for concurrency-aware policies.
/// `optimum_for_tier` returns the per-server optimal concurrency for a tier,
/// or nullopt to leave that tier's allocation untouched.
void apply_optima(
    topology::ServiceGraph& system, SoftwareAgent& agent,
    const SoftAdaptTargets& targets,
    const std::function<std::optional<int>(std::size_t)>& optimum_for_tier);

/// EC2-AutoScaling: hardware-only; soft resources never move.
class Ec2AutoScalingPolicy final : public SoftResourcePolicy {
 public:
  std::string name() const override { return "EC2-AutoScaling"; }
  void adapt(SimTime) override {}
};

/// The offline profile DCM was trained with: per-tier optimal concurrency
/// under the *training* conditions.
struct DcmProfile {
  std::map<std::size_t, int> tier_optimal_concurrency;
};

class DcmPolicy final : public SoftResourcePolicy {
 public:
  DcmPolicy(topology::ServiceGraph& system, SoftwareAgent& agent,
            SoftAdaptTargets targets, DcmProfile profile)
      : system_(system), agent_(agent), targets_(std::move(targets)),
        profile_(std::move(profile)) {}

  std::string name() const override { return "DCM"; }
  void adapt(SimTime now) override;

 private:
  topology::ServiceGraph& system_;
  SoftwareAgent& agent_;
  SoftAdaptTargets targets_;
  DcmProfile profile_;
};

class ConScalePolicy final : public SoftResourcePolicy {
 public:
  /// `headroom` scales the applied allocation above the estimated Q_lower.
  /// Q_lower is the *left edge* of the plateau; applying it exactly leaves
  /// zero slack for estimation noise and sampling censoring (once a pool is
  /// capped, concurrency beyond the cap can never be observed again), so a
  /// small cushion keeps the operating point safely inside the stable stage.
  /// Runs pass FrameworkConfig::conscale_headroom, the one default.
  ConScalePolicy(topology::ServiceGraph& system, SoftwareAgent& agent,
                 SoftAdaptTargets targets,
                 ConcurrencyEstimatorService& estimator, double headroom)
      : system_(system), agent_(agent), targets_(std::move(targets)),
        estimator_(estimator), headroom_(headroom) {}

  std::string name() const override { return "ConScale"; }
  void adapt(SimTime now) override;

 private:
  topology::ServiceGraph& system_;
  SoftwareAgent& agent_;
  SoftAdaptTargets targets_;
  ConcurrencyEstimatorService& estimator_;
  double headroom_;
};

}  // namespace conscale
