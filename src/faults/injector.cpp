#include "faults/injector.h"

#include <cctype>
#include <stdexcept>

#include "topology/service_graph.h"

namespace conscale {

namespace {

bool is_all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

FaultInjector::FaultInjector(Simulation& sim, topology::ServiceGraph& system,
                             MetricsWarehouse* warehouse, FaultPlan plan)
    : sim_(sim), system_(system), warehouse_(warehouse),
      plan_(std::move(plan)) {
  // Validate eagerly: a plan naming a tier this topology does not have, or
  // a dropout without a warehouse, is a configuration error — failing at
  // construction beats silently skipping the injection mid-run.
  for (const auto& event : plan_.events) {
    if (event.kind == FaultKind::kMonitoringDropout) {
      if (warehouse_ == nullptr) {
        throw std::invalid_argument(
            "FaultInjector: plan has a monitoring dropout but no metrics "
            "warehouse is attached");
      }
      continue;
    }
    resolve_tier(event);
  }
}

std::size_t FaultInjector::resolve_tier(const FaultEvent& event) const {
  const std::string& tier = event.tier;
  if (tier.empty()) {
    if (event.kind == FaultKind::kBootJitter) return system_.tier_count();
    throw std::invalid_argument("FaultInjector: '" + to_string(event.kind) +
                                "' event requires a tier");
  }
  if (is_all_digits(tier)) {
    const std::size_t index = std::stoul(tier);
    if (index >= system_.tier_count()) {
      throw std::invalid_argument("FaultInjector: tier index " + tier +
                                  " out of range (system has " +
                                  std::to_string(system_.tier_count()) +
                                  " tiers)");
    }
    return index;
  }
  std::size_t index = system_.tier_index_by_name(tier);
  if (index < system_.tier_count()) return index;
  // RUBBoS aliases: front / middle / back of the 3-tier chain.
  if (tier == "web") {
    index = 0;
  } else if (tier == "app") {
    index = 1;
  } else if (tier == "db") {
    index = 2;
  } else {
    throw std::invalid_argument("FaultInjector: unknown tier '" + tier + "'");
  }
  if (index >= system_.tier_count()) {
    throw std::invalid_argument("FaultInjector: alias '" + tier +
                                "' needs a deeper topology");
  }
  return index;
}

void FaultInjector::arm() {
  if (armed_) {
    throw std::logic_error("FaultInjector: arm() called twice");
  }
  armed_ = true;
  for (const auto& event : plan_.events) {
    switch (event.kind) {
      case FaultKind::kVmCrash:
        arm_crash(event, resolve_tier(event));
        break;
      case FaultKind::kCpuInterference:
        arm_interference(event, resolve_tier(event));
        break;
      case FaultKind::kBootJitter:
        arm_boot_jitter(event, resolve_tier(event));
        break;
      case FaultKind::kMonitoringDropout:
        arm_dropout(event);
        break;
    }
  }
}

void FaultInjector::arm_crash(const FaultEvent& event,
                              std::size_t tier_index) {
  const std::string tier_name = system_.tier(tier_index).name();
  windows_.push_back(
      {FaultKind::kVmCrash, event.at,
       event.restart_delay >= 0.0 ? event.at + event.restart_delay : event.at,
       tier_name});
  sim_.schedule_at(event.at, [this, event, tier_index] {
    TierGroup& tier = system_.tier(tier_index);
    if (tier.inject_vm_crash(event.vm_ordinal, event.restart_delay)) {
      ++stats_.crashes_injected;
    } else {
      ++stats_.crashes_missed;
    }
  });
}

void FaultInjector::arm_interference(const FaultEvent& event,
                                     std::size_t tier_index) {
  const std::string tier_name = system_.tier(tier_index).name();
  windows_.push_back({FaultKind::kCpuInterference, event.at,
                      event.at + event.duration, tier_name});
  const std::size_t selector =
      event.all_vms ? TierGroup::kAllVms : event.vm_ordinal;
  sim_.schedule_at(event.at, [this, event, tier_index, selector] {
    TierGroup& tier = system_.tier(tier_index);
    const std::vector<Server*> touched =
        tier.set_vm_cpu_speed_factor(selector, event.factor);
    ++stats_.interference_windows;
    // Windows are assumed non-overlapping per tier: speeds restore to the
    // tier's nominal template value, not to a saved stack of factors.
    sim_.schedule_after(event.duration, [this, event, tier_index, touched] {
      TierGroup& tier2 = system_.tier(tier_index);
      if (event.all_vms) {
        // Also restores VMs born inside the window and clears the factor
        // applied to future VMs.
        tier2.set_vm_cpu_speed_factor(TierGroup::kAllVms, 1.0);
      } else {
        const double nominal = tier2.config().server_template.speed;
        for (Server* server : touched) server->set_cpu_speed(nominal);
      }
    });
  });
}

void FaultInjector::arm_boot_jitter(const FaultEvent& event,
                                    std::size_t tier_index) {
  const bool all_tiers = tier_index >= system_.tier_count();
  windows_.push_back({FaultKind::kBootJitter, event.at,
                      event.at + event.duration,
                      all_tiers ? std::string()
                                : system_.tier(tier_index).name()});
  auto apply = [this, tier_index, all_tiers](double factor) {
    if (all_tiers) {
      for (std::size_t i = 0; i < system_.tier_count(); ++i) {
        system_.tier(i).set_prep_delay_factor(factor);
      }
    } else {
      system_.tier(tier_index).set_prep_delay_factor(factor);
    }
  };
  sim_.schedule_at(event.at, [this, event, apply] {
    ++stats_.boot_jitter_windows;
    apply(event.factor);
    sim_.schedule_after(event.duration, [apply] { apply(1.0); });
  });
}

void FaultInjector::arm_dropout(const FaultEvent& event) {
  windows_.push_back({FaultKind::kMonitoringDropout, event.at,
                      event.at + event.duration, std::string()});
  sim_.schedule_at(event.at, [this, event] {
    ++stats_.dropout_windows;
    warehouse_->set_ingestion_enabled(false);
    sim_.schedule_after(event.duration, [this] {
      warehouse_->set_ingestion_enabled(true);
    });
  });
}

}  // namespace conscale
