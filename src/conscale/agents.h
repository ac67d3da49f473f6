// Actuators (Fig 8, step 4-6): the hardware agent performs VM scaling via
// the cluster layer ("calling hypervisor APIs remotely"), the software agent
// performs runtime soft-resource reallocation (the JMX/RMI path in the real
// implementation, §IV-A). Both record every action as a ScalingEvent for
// the experiment reports, and the software agent applies changes after a
// small actuation latency — a remote JMX call is fast but not instantaneous.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/simulation.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale {

struct ScalingEvent {
  SimTime t = 0.0;
  std::string tier;
  std::string action;  ///< "scale-out", "scale-in", "threads", "dbconn"
  double value = 0.0;  ///< pool size for soft actions; VM count after hw ones

  bool operator==(const ScalingEvent&) const = default;
};

class HardwareAgent {
 public:
  HardwareAgent(Simulation& sim, topology::ServiceGraph& system);

  /// Returns true if the scale-out was initiated (VM begins provisioning).
  bool scale_out(std::size_t tier_index);
  /// Returns true if a VM drain was initiated.
  bool scale_in(std::size_t tier_index);
  /// Vertical scaling: per-VM core count for the tier. Note that this
  /// changes the tier's optimal concurrency (§III-C.1) — callers should let
  /// the soft-resource policy adapt afterwards.
  bool scale_vertical(std::size_t tier_index, int cores);
  /// Fine-grained vertical scaling: sets every VM in the tier's CPU
  /// entitlement (per-core speed as a fraction of nominal; VMs created
  /// later inherit it). The hypervisor-credit knob the zoo's vertical
  /// controller drives. Returns false for factors outside (0, inf).
  bool set_tier_cpu_entitlement(std::size_t tier_index, double factor);

  const std::vector<ScalingEvent>& events() const { return events_; }

 private:
  Simulation& sim_;
  topology::ServiceGraph& system_;
  std::vector<ScalingEvent> events_;
};

class SoftwareAgent {
 public:
  /// JMX round-trip + pool adjustment.
  static constexpr SimDuration kActuationDelay = 0.1;

  SoftwareAgent(Simulation& sim, topology::ServiceGraph& system);

  /// Sets every server in the tier's worker thread pool to `size`.
  void set_tier_threads(std::size_t tier_index, std::size_t size);
  /// Sets every server in the tier's downstream connection pool to `size`
  /// (the app tier's per-Tomcat DB connection pool).
  void set_tier_downstream_pool(std::size_t tier_index, std::size_t size);

  const std::vector<ScalingEvent>& events() const { return events_; }

 private:
  Simulation& sim_;
  topology::ServiceGraph& system_;
  std::vector<ScalingEvent> events_;
};

}  // namespace conscale
