#include "cluster/vm.h"

#include <stdexcept>

namespace conscale {

std::string to_string(VmState state) {
  switch (state) {
    case VmState::kProvisioning:
      return "provisioning";
    case VmState::kRunning:
      return "running";
    case VmState::kDraining:
      return "draining";
    case VmState::kStopped:
      return "stopped";
    case VmState::kFailed:
      return "failed";
  }
  return "?";
}

double CpuMeter::sample(SimTime now, double busy_core_seconds, int cores) {
  if (!primed_) {
    primed_ = true;
    last_time_ = now;
    last_busy_ = busy_core_seconds;
    return 0.0;
  }
  const double dt = now - last_time_;
  const double dbusy = busy_core_seconds - last_busy_;
  last_time_ = now;
  last_busy_ = busy_core_seconds;
  if (dt <= 0.0 || cores <= 0) return 0.0;
  const double util = dbusy / (dt * static_cast<double>(cores));
  return util < 0.0 ? 0.0 : (util > 1.0 ? 1.0 : util);
}

Vm::Vm(Simulation& sim, Server::Params server_params, SimDuration prep_delay,
       ReadyCallback on_ready)
    : sim_(sim), server_(sim, std::move(server_params)),
      on_ready_(std::move(on_ready)) {
  begin_provisioning(prep_delay);
}

void Vm::begin_provisioning(SimDuration prep_delay) {
  state_ = VmState::kProvisioning;
  boot_event_ = sim_.schedule_after(prep_delay, [this] {
    if (state_ != VmState::kProvisioning) return;
    state_ = VmState::kRunning;
    if (on_ready_) on_ready_(*this);
  });
}

void Vm::drain(StoppedCallback on_stopped) {
  if (state_ == VmState::kDraining) return;
  if (state_ != VmState::kRunning) {
    throw std::logic_error("Vm '" + name() + "': illegal transition " +
                           to_string(state_) + " -> draining");
  }
  state_ = VmState::kDraining;
  on_stopped_ = std::move(on_stopped);
  check_drained();
}

std::size_t Vm::fail(SimDuration restart_delay,
                     SimDuration restart_prep_delay) {
  if (state_ == VmState::kStopped || state_ == VmState::kFailed) {
    throw std::logic_error("Vm '" + name() + "': illegal transition " +
                           to_string(state_) + " -> failed");
  }
  boot_event_.cancel();
  drain_poll_.cancel();
  on_stopped_ = nullptr;  // a crashed VM never reports a clean drain
  state_ = VmState::kFailed;
  ++crash_count_;
  const std::size_t aborted = server_.fail();
  if (restart_delay >= 0.0) {
    restart_event_ =
        sim_.schedule_after(restart_delay, [this, restart_prep_delay] {
          if (state_ != VmState::kFailed) return;
          begin_provisioning(restart_prep_delay);
        });
  }
  return aborted;
}

void Vm::check_drained() {
  if (state_ != VmState::kDraining) return;
  if (server_.in_flight() == 0) {
    state_ = VmState::kStopped;
    if (on_stopped_) {
      auto callback = std::move(on_stopped_);
      callback(*this);
    }
    return;
  }
  // Poll for drain completion; in-flight work holds no reference to the VM,
  // so a light poll keeps the coupling one-way.
  drain_poll_ = sim_.schedule_after(0.1, [this] { check_drained(); });
}

}  // namespace conscale
