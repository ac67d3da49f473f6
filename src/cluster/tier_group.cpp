#include "cluster/tier_group.h"

#include <algorithm>

namespace conscale {

TierGroup::TierGroup(Simulation& sim, TierConfig config)
    : sim_(sim), config_(std::move(config)),
      lb_(config_.name + ".lb", config_.lb_policy),
      thread_pool_size_(config_.server_template.thread_pool_size),
      downstream_pool_size_(config_.server_template.downstream_pool_size) {}

std::unique_ptr<Vm> TierGroup::make_vm(SimDuration prep_delay) {
  Server::Params params = config_.server_template;
  params.name = config_.name + std::to_string(next_vm_number_);
  params.tier_index = config_.tier_index;
  params.thread_pool_size = thread_pool_size_;
  params.downstream_pool_size = downstream_pool_size_;
  // Distinct demand-sampling streams per VM, still fully deterministic.
  params.seed = config_.server_template.seed + next_vm_number_ * 7919;
  // A VM born inside a tier-wide interference window shares the slow host.
  params.speed = config_.server_template.speed * cpu_speed_factor_;
  ++next_vm_number_;

  auto vm = std::make_unique<Vm>(sim_, std::move(params), prep_delay,
                                 [this](Vm& ready) {
                                   lb_.add_backend(&ready.server());
                                   if (on_vm_ready_) on_vm_ready_(ready);
                                 });
  if (downstream_factory_) {
    vm->server().set_downstream(downstream_factory_());
  }
  return vm;
}

void TierGroup::bootstrap(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    vms_.push_back(make_vm(0.0));
    vms_.back()->mark_bootstrap();
    meters_.push_back(std::make_unique<CpuMeter>());
  }
}

bool TierGroup::scale_out() {
  if (billed_vms() >= config_.max_vms) return false;
  vms_.push_back(make_vm(config_.vm_prep_delay * prep_delay_factor_));
  meters_.push_back(std::make_unique<CpuMeter>());
  return true;
}

bool TierGroup::inject_vm_crash(std::size_t ordinal,
                                SimDuration restart_delay) {
  std::size_t seen = 0;
  for (const auto& vm : vms_) {
    if (vm->state() != VmState::kRunning) continue;
    if (seen++ != ordinal) continue;
    // Deregister before failing so the LB never dispatches to a dead server
    // while the abort completions run.
    lb_.remove_backend(&vm->server());
    vm->fail(restart_delay, config_.vm_prep_delay * prep_delay_factor_);
    return true;
  }
  return false;
}

void TierGroup::set_prep_delay_factor(double factor) {
  prep_delay_factor_ = factor > 0.0 ? factor : 1.0;
}

std::vector<Server*> TierGroup::set_vm_cpu_speed_factor(std::size_t ordinal,
                                                        double factor) {
  const double speed = config_.server_template.speed * factor;
  std::vector<Server*> touched;
  if (ordinal == kAllVms) {
    // Remember the factor so VMs created inside the window inherit it.
    cpu_speed_factor_ = factor;
    for (const auto& vm : vms_) {
      if (!vm->billed()) continue;
      vm->server().set_cpu_speed(speed);
      touched.push_back(&vm->server());
    }
    return touched;
  }
  std::size_t seen = 0;
  for (const auto& vm : vms_) {
    if (!vm->billed()) continue;
    if (seen++ != ordinal) continue;
    vm->server().set_cpu_speed(speed);
    touched.push_back(&vm->server());
    break;
  }
  return touched;
}

bool TierGroup::scale_in() {
  if (running_vms() <= config_.min_vms) return false;
  // Retire the most recently added running VM (LIFO keeps the original,
  // warmed-up servers in place).
  for (auto it = vms_.rbegin(); it != vms_.rend(); ++it) {
    Vm* vm = it->get();
    if (vm->state() == VmState::kRunning) {
      lb_.remove_backend(&vm->server());
      vm->drain([](Vm&) {});
      return true;
    }
  }
  return false;
}

bool TierGroup::set_cores(int cores) {
  if (cores < 1) return false;
  config_.server_template.cores = cores;
  for (const auto& vm : vms_) {
    if (vm->state() == VmState::kRunning ||
        vm->state() == VmState::kProvisioning) {
      vm->server().set_cores(cores);
    }
  }
  return true;
}

std::size_t TierGroup::billed_vms() const {
  std::size_t count = 0;
  for (const auto& vm : vms_) {
    if (vm->billed()) ++count;
  }
  return count;
}

std::size_t TierGroup::running_vms() const {
  std::size_t count = 0;
  for (const auto& vm : vms_) {
    if (vm->state() == VmState::kRunning) ++count;
  }
  return count;
}

std::size_t TierGroup::provisioning_vms() const {
  std::size_t count = 0;
  for (const auto& vm : vms_) {
    if (vm->state() == VmState::kProvisioning) ++count;
  }
  return count;
}

std::size_t TierGroup::failed_vms() const {
  std::size_t count = 0;
  for (const auto& vm : vms_) {
    if (vm->state() == VmState::kFailed) ++count;
  }
  return count;
}

std::uint64_t TierGroup::total_crashes() const {
  std::uint64_t count = 0;
  for (const auto& vm : vms_) count += vm->crash_count();
  return count;
}

std::uint64_t TierGroup::total_aborted_requests() const {
  std::uint64_t count = 0;
  for (const auto& vm : vms_) count += vm->server().aborted_requests();
  return count;
}

std::vector<Server*> TierGroup::running_servers() {
  std::vector<Server*> servers;
  for (const auto& vm : vms_) {
    if (vm->state() == VmState::kRunning) servers.push_back(&vm->server());
  }
  return servers;
}

std::vector<Vm*> TierGroup::all_vms() {
  std::vector<Vm*> out;
  out.reserve(vms_.size());
  for (const auto& vm : vms_) out.push_back(vm.get());
  return out;
}

double TierGroup::poll_avg_cpu_utilization() {
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    Vm& vm = *vms_[i];
    // Meters stay index-aligned with VMs; sample running VMs only, matching
    // what a per-VM monitoring agent would report.
    const double util = meters_[i]->sample(
        sim_.now(), vm.server().cpu_busy_core_seconds(), vm.server().cores());
    if (vm.state() == VmState::kRunning) {
      total += util;
      ++count;
    }
  }
  return count ? total / static_cast<double>(count) : 0.0;
}

void TierGroup::set_thread_pool_size(std::size_t size) {
  thread_pool_size_ = std::max<std::size_t>(size, 1);
  for (const auto& vm : vms_) {
    if (vm->state() == VmState::kRunning ||
        vm->state() == VmState::kProvisioning) {
      vm->server().set_thread_pool_size(thread_pool_size_);
    }
  }
}

void TierGroup::set_downstream_pool_size(std::size_t size) {
  downstream_pool_size_ = std::max<std::size_t>(size, 1);
  for (const auto& vm : vms_) {
    if (vm->state() == VmState::kRunning ||
        vm->state() == VmState::kProvisioning) {
      vm->server().set_downstream_pool_size(downstream_pool_size_);
    }
  }
}

}  // namespace conscale
