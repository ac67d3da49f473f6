// TierGroup: one horizontally scalable tier — a set of VMs behind a load
// balancer, with scale-out/in operations and tier-wide soft-resource
// actuation. The hardware agent calls scale_out()/scale_in(); the software
// agent calls set_thread_pool_size()/set_downstream_pool_size().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/load_balancer.h"
#include "cluster/vm.h"
#include "simcore/simulation.h"
#include "tier/server.h"

namespace conscale {

struct TierConfig {
  std::string name = "tier";
  int tier_index = 0;
  Server::Params server_template;  ///< name field is overridden per VM
  SimDuration vm_prep_delay = 15.0;  ///< §IV-A: dataset replication + boot
  LbPolicy lb_policy = LbPolicy::kLeastConnections;
  std::size_t min_vms = 1;
  std::size_t max_vms = 8;
};

class TierGroup {
 public:
  /// Invoked whenever a VM finishes provisioning and joins the LB —
  /// the metrics layer attaches monitors here, and scaling policies apply
  /// soft resources to the newcomer.
  using VmReadyCallback = std::function<void(Vm&)>;

  TierGroup(Simulation& sim, TierConfig config);

  /// Adds `count` VMs immediately (initial topology; no preparation delay).
  void bootstrap(std::size_t count);

  /// Starts provisioning one VM (takes vm_prep_delay to become Running).
  /// Returns false when at max capacity (counting in-flight provisioning).
  bool scale_out();

  /// Drains the most recently added running VM. Returns false at min size.
  bool scale_in();

  // ---- Fault injection (src/faults) -------------------------------------

  /// Crashes the `ordinal`-th *running* VM (0 = oldest running, in creation
  /// order). The VM is deregistered from the LB first, then its server
  /// errors every in-flight request. `restart_delay` >= 0 schedules a
  /// restart after that many seconds (provisioning then takes the tier's
  /// current effective prep delay, i.e. vm_prep_delay * prep delay factor);
  /// negative = permanent. Returns false when no such running VM exists.
  bool inject_vm_crash(std::size_t ordinal, SimDuration restart_delay);

  /// Boot-latency jitter (degraded cloud provisioning API): multiplies the
  /// preparation delay of every *future* scale-out and crash-restart
  /// (the factor in effect when the operation starts applies). 1.0 = nominal.
  void set_prep_delay_factor(double factor);
  double prep_delay_factor() const { return prep_delay_factor_; }

  /// CPU interference (noisy neighbor): sets the per-core speed of the
  /// `ordinal`-th currently-billed VM to template speed x `factor`, or of
  /// every billed VM when `ordinal` is kAllVms (in which case VMs created
  /// while the window is open inherit the factor too). Returns the servers
  /// touched, so the injector can close the window on exactly those VMs.
  static constexpr std::size_t kAllVms = static_cast<std::size_t>(-1);
  std::vector<Server*> set_vm_cpu_speed_factor(std::size_t ordinal,
                                               double factor);

  /// Vertical scaling (§III-C.1): sets the core count of every running VM
  /// in the tier (and of future VMs). Takes effect immediately — hypervisors
  /// hot-plug vCPUs. Returns false if `cores` < 1.
  bool set_cores(int cores);
  int cores() const { return config_.server_template.cores; }

  std::size_t billed_vms() const;    ///< provisioning + running + draining
  std::size_t running_vms() const;
  std::size_t provisioning_vms() const;
  std::size_t failed_vms() const;
  /// Total crashes injected into this tier over the run.
  std::uint64_t total_crashes() const;
  /// Total requests errored by crashes across all of this tier's servers.
  std::uint64_t total_aborted_requests() const;
  const TierConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  LoadBalancer& lb() { return lb_; }

  /// Running servers (monitoring + estimation targets).
  std::vector<Server*> running_servers();
  std::vector<Vm*> all_vms();

  /// Average CPU utilization across running VMs since the previous call
  /// (each TierGroup poll uses its own meters; call at a fixed period).
  double poll_avg_cpu_utilization();

  // ---- Soft resources, applied tier-wide and remembered for future VMs ----
  void set_thread_pool_size(std::size_t size);
  void set_downstream_pool_size(std::size_t size);
  std::size_t thread_pool_size() const { return thread_pool_size_; }
  std::size_t downstream_pool_size() const { return downstream_pool_size_; }

  void set_vm_ready_callback(VmReadyCallback callback) {
    on_vm_ready_ = std::move(callback);
  }
  /// The cluster layer wires each new server's downstream here.
  void set_downstream_factory(std::function<Server::DownstreamFn()> factory) {
    downstream_factory_ = std::move(factory);
  }

 private:
  std::unique_ptr<Vm> make_vm(SimDuration prep_delay);

  Simulation& sim_;
  TierConfig config_;
  LoadBalancer lb_;
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<std::unique_ptr<CpuMeter>> meters_;
  std::size_t next_vm_number_ = 1;
  double prep_delay_factor_ = 1.0;
  double cpu_speed_factor_ = 1.0;  ///< applied to newly created VMs too
  std::size_t thread_pool_size_;
  std::size_t downstream_pool_size_;
  VmReadyCallback on_vm_ready_;
  std::function<Server::DownstreamFn()> downstream_factory_;
};

}  // namespace conscale
