// FaultInjector: arms a FaultPlan against a running ServiceGraph by
// translating each declarative event into ordinary simcore events. All
// scheduling happens in arm(), before the simulation advances, so the
// injections interleave with workload and control-loop events in the
// deterministic (time, sequence) order — the same plan and seed reproduce
// the same run exactly, serial or under parallel fan-out.
//
// What each FaultKind does:
//  - kVmCrash: deregisters the target VM from its tier LB, errors every
//    in-flight request on it (Server::fail), and optionally schedules a
//    restart that re-provisions with the tier's current prep delay.
//  - kCpuInterference: sets per-core speed to template x factor on the
//    targeted VM(s) at window start and restores the original speed of
//    exactly those servers at window end (noisy neighbor / Q-clouds).
//  - kBootJitter: multiplies the tier's provisioning delay for scale-outs
//    and crash-restarts started inside the window.
//  - kMonitoringDropout: disables MetricsWarehouse ingestion for the
//    window; samples produced meanwhile are counted and dropped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "metrics/warehouse.h"
#include "simcore/simulation.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale {

struct FaultInjectorStats {
  std::uint64_t crashes_injected = 0;
  /// Crash events whose ordinal had no running VM at injection time (e.g.
  /// the tier had already scaled in). The plan entry is a no-op, counted so
  /// benches can report partial injection instead of hiding it.
  std::uint64_t crashes_missed = 0;
  std::uint64_t interference_windows = 0;
  std::uint64_t boot_jitter_windows = 0;
  std::uint64_t dropout_windows = 0;

  bool operator==(const FaultInjectorStats&) const = default;
};

/// A realized perturbation window, for CSV export and plot shading. Crashes
/// use [at, at + restart_delay) (the outage), or a zero-length window when
/// the crash is permanent.
struct FaultWindow {
  FaultKind kind = FaultKind::kVmCrash;
  SimTime start = 0.0;
  SimTime end = 0.0;
  std::string tier;  ///< resolved tier name; empty = system-wide

  bool operator==(const FaultWindow&) const = default;
};

class FaultInjector {
 public:
  /// `warehouse` may be null when the run has no metrics layer — then
  /// kMonitoringDropout events are invalid and arm() throws on them.
  /// The plan's tier selectors are resolved against `system` immediately,
  /// so a plan naming a nonexistent tier fails at construction.
  FaultInjector(Simulation& sim, topology::ServiceGraph& system,
                MetricsWarehouse* warehouse, FaultPlan plan);

  /// Schedules every event of the plan. Call once, before the run starts.
  void arm();

  const FaultPlan& plan() const { return plan_; }
  const FaultInjectorStats& stats() const { return stats_; }
  const std::vector<FaultWindow>& windows() const { return windows_; }

 private:
  std::size_t resolve_tier(const FaultEvent& event) const;
  void arm_crash(const FaultEvent& event, std::size_t tier_index);
  void arm_interference(const FaultEvent& event, std::size_t tier_index);
  void arm_boot_jitter(const FaultEvent& event, std::size_t tier_index);
  void arm_dropout(const FaultEvent& event);

  Simulation& sim_;
  topology::ServiceGraph& system_;
  MetricsWarehouse* warehouse_;
  FaultPlan plan_;
  FaultInjectorStats stats_;
  std::vector<FaultWindow> windows_;
  bool armed_ = false;
};

}  // namespace conscale
