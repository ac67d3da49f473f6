// Vm: a virtual machine hosting one component server.
//
// Lifecycle mirrors cloud scale-out mechanics (§IV-A "VM-scaling"):
// Provisioning (data/state replication + boot, the paper's 15 s preparation
// period) -> Running (registered with the tier's load balancer) ->
// Draining (scale-in: removed from the LB, finishing in-flight work) ->
// Stopped. A fault-injected crash moves any live state to Failed; a failed
// VM may later restart, which re-enters Provisioning. CPU utilization — the
// signal threshold-based autoscalers act on — is read with a CpuMeter over
// the server's busy-core integral.
//
// Legal transitions (everything else throws std::logic_error):
//
//   Provisioning -> Running   (boot completes)
//   Provisioning -> Failed    (crash during boot)
//   Running      -> Draining  (scale-in)
//   Running      -> Failed    (crash)
//   Draining     -> Stopped   (in-flight work drained)
//   Draining     -> Failed    (crash while draining)
//   Failed       -> Provisioning (restart)
//   Stopped      -> (terminal)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "simcore/simulation.h"
#include "tier/server.h"

namespace conscale {

enum class VmState { kProvisioning, kRunning, kDraining, kStopped, kFailed };

std::string to_string(VmState state);

/// Differentiates a utilization percentage out of a monotone busy-seconds
/// integral. One meter per poller; stateless servers stay unpolluted.
class CpuMeter {
 public:
  /// Returns average utilization in [0,1] since the previous sample.
  double sample(SimTime now, double busy_core_seconds, int cores);

 private:
  SimTime last_time_ = 0.0;
  double last_busy_ = 0.0;
  bool primed_ = false;
};

class Vm {
 public:
  using ReadyCallback = std::function<void(Vm&)>;
  using StoppedCallback = std::function<void(Vm&)>;

  /// Creates the VM in Provisioning state; after `prep_delay` it transitions
  /// to Running and invokes `on_ready`. A zero delay still transitions via
  /// the event queue (deterministic ordering with other time-zero work).
  /// `on_ready` fires again after every restart-from-failure, so LB
  /// re-registration works the same way as first boot.
  Vm(Simulation& sim, Server::Params server_params, SimDuration prep_delay,
     ReadyCallback on_ready);

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  Server& server() { return server_; }
  const Server& server() const { return server_; }
  VmState state() const { return state_; }
  const std::string& name() const { return server_.name(); }
  bool running() const { return state_ == VmState::kRunning; }
  bool failed() const { return state_ == VmState::kFailed; }

  /// Scale-in: stop accepting work (caller must deregister from the LB) and
  /// stop once in-flight work drains. `on_stopped` fires exactly once.
  /// Idempotent while already Draining; throws std::logic_error from any
  /// state other than Running/Draining (e.g. Stopped -> Draining).
  void drain(StoppedCallback on_stopped);

  /// Fault injection: crash the VM now. In-flight requests are errored via
  /// Server::fail() (the upstream sees connection resets, not hangs) and any
  /// pending boot or drain events are cancelled. The caller must deregister
  /// the VM from its load balancer *before* calling fail().
  ///
  /// `restart_delay` >= 0 schedules a restart that many seconds from now;
  /// the restart re-enters Provisioning for `restart_prep_delay` seconds and
  /// then fires the construction-time ready callback again. A negative
  /// `restart_delay` means the crash is permanent. Throws std::logic_error
  /// if the VM is already Stopped or Failed. Returns the number of in-flight
  /// requests aborted.
  std::size_t fail(SimDuration restart_delay, SimDuration restart_prep_delay);

  /// For the "# of VMs" metric: a VM is billed while provisioning, running,
  /// or draining. Failed VMs are not billed until they restart.
  bool billed() const {
    return state_ != VmState::kStopped && state_ != VmState::kFailed;
  }

  /// How many times this VM has crashed (fault injection).
  std::uint64_t crash_count() const { return crash_count_; }

  /// True for VMs created by the initial topology bootstrap rather than by a
  /// runtime scale-out. Controllers use this to tell "the system came up"
  /// apart from "a scaling action completed".
  bool is_bootstrap() const { return is_bootstrap_; }
  void mark_bootstrap() { is_bootstrap_ = true; }

 private:
  void begin_provisioning(SimDuration prep_delay);
  void check_drained();

  Simulation& sim_;
  Server server_;
  VmState state_ = VmState::kProvisioning;
  bool is_bootstrap_ = false;
  ReadyCallback on_ready_;
  StoppedCallback on_stopped_;
  EventHandle boot_event_;
  EventHandle restart_event_;
  EventHandle drain_poll_;
  std::uint64_t crash_count_ = 0;
};

}  // namespace conscale
