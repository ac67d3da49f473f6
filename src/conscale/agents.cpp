#include "conscale/agents.h"

#include "topology/service_graph.h"

namespace conscale {

HardwareAgent::HardwareAgent(Simulation& sim, topology::ServiceGraph& system)
    : sim_(sim), system_(system) {}

bool HardwareAgent::scale_out(std::size_t tier_index) {
  TierGroup& tier = system_.tier(tier_index);
  if (!tier.scale_out()) return false;
  events_.push_back({sim_.now(), tier.name(), "scale-out",
                     static_cast<double>(tier.billed_vms())});
  return true;
}

bool HardwareAgent::scale_in(std::size_t tier_index) {
  TierGroup& tier = system_.tier(tier_index);
  if (!tier.scale_in()) return false;
  events_.push_back({sim_.now(), tier.name(), "scale-in",
                     static_cast<double>(tier.billed_vms())});
  return true;
}

bool HardwareAgent::scale_vertical(std::size_t tier_index, int cores) {
  TierGroup& tier = system_.tier(tier_index);
  if (!tier.set_cores(cores)) return false;
  events_.push_back({sim_.now(), tier.name(), "scale-vertical",
                     static_cast<double>(cores)});
  return true;
}

bool HardwareAgent::set_tier_cpu_entitlement(std::size_t tier_index,
                                             double factor) {
  if (!(factor > 0.0)) return false;
  TierGroup& tier = system_.tier(tier_index);
  tier.set_vm_cpu_speed_factor(TierGroup::kAllVms, factor);
  events_.push_back({sim_.now(), tier.name(), "entitlement", factor});
  return true;
}

SoftwareAgent::SoftwareAgent(Simulation& sim, topology::ServiceGraph& system)
    : sim_(sim), system_(system) {}

void SoftwareAgent::set_tier_threads(std::size_t tier_index,
                                     std::size_t size) {
  TierGroup& tier = system_.tier(tier_index);
  if (tier.thread_pool_size() == size) return;  // idempotent
  events_.push_back({sim_.now(), tier.name(), "threads",
                     static_cast<double>(size)});
  sim_.schedule_after(kActuationDelay, [&tier, size] {
    tier.set_thread_pool_size(size);
  });
}

void SoftwareAgent::set_tier_downstream_pool(std::size_t tier_index,
                                             std::size_t size) {
  TierGroup& tier = system_.tier(tier_index);
  if (tier.downstream_pool_size() == size) return;
  events_.push_back({sim_.now(), tier.name(), "dbconn",
                     static_cast<double>(size)});
  sim_.schedule_after(kActuationDelay, [&tier, size] {
    tier.set_downstream_pool_size(size);
  });
}

}  // namespace conscale
