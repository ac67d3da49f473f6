// ProcessorSharingResource: an exact event-driven simulation of a multi-core
// processor-sharing station with a concurrency-dependent efficiency factor.
//
// Semantics: `n` active jobs share `cores` cores. A job's instantaneous
// service rate is
//
//   rate(n) = speed * min(1, cores / n) * efficiency(n)
//
// i.e. with n <= cores every job runs at full speed; beyond that the cores
// are shared equally; and the ContentionModel shrinks everyone's rate as
// concurrency grows.
//
// Implementation (DESIGN.md §6.5): because every active job is served at the
// *same* instantaneous rate, per-job progress never needs to be stored — the
// resource keeps a virtual service clock V(t), the cumulative service each
// continuously-present job has received. V is piecewise linear in real time
// (dV/dt = rate(n), constant between membership/configuration changes). A
// job submitted when the clock reads V_s with demand w completes when
// V reaches V_s + w; that *finish tag* is immutable, so jobs live in a
// min-heap keyed on (finish tag, id). Advancing to now is O(1) (bump V),
// a completion pops in O(log n), and abort just frees the job's slot — its
// heap entry is stale and gets skipped lazily. A busy period at
// concurrency n therefore costs O(log n) per event instead of the O(n)
// full-scan of the per-job-decrement formulation (kept as a test-only
// reference in tests/resources/reference_ps_resource.h).
//
// Busy-core time is integrated continuously so the cluster layer can report
// the CPU utilization signal the scaling controllers act on.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "resources/contention.h"
#include "simcore/simulation.h"

namespace conscale {

class ProcessorSharingResource {
 public:
  using JobId = std::uint64_t;
  using CompletionCallback = std::function<void()>;

  ProcessorSharingResource(Simulation& sim, int cores, double speed = 1.0,
                           ContentionModel contention = ContentionModel::none());
  ~ProcessorSharingResource();
  ProcessorSharingResource(const ProcessorSharingResource&) = delete;
  ProcessorSharingResource& operator=(const ProcessorSharingResource&) = delete;

  /// Submits a job demanding `work` CPU-seconds (at speed 1, one core).
  /// `on_complete` fires when the job's work is fully served.
  JobId submit(double work, CompletionCallback on_complete);

  /// Aborts a job, discarding its remaining work (no callback). Returns
  /// false if the job already completed.
  bool abort(JobId id);

  /// Aborts every active job (no callbacks fire) — a VM crash wipes the
  /// CPU's run queue. Busy time is integrated up to now first, so the
  /// utilization signal stays consistent. Returns the number of jobs killed.
  std::size_t abort_all();

  /// Runtime reconfiguration — vertical scaling (§III-C.1). Takes effect
  /// immediately; in-flight jobs keep their remaining work.
  void set_cores(int cores);
  void set_speed(double speed);
  void set_contention(ContentionModel contention);

  int cores() const { return cores_; }
  double speed() const { return speed_; }
  const ContentionModel& contention() const { return contention_; }
  std::size_t active_jobs() const { return active_; }

  /// Remaining demand of an active job (finish tag minus the virtual clock),
  /// clamped at 0; -1 if the job already completed or was aborted.
  /// abort() and remaining() scan the slots: both are off the hot path.
  double remaining(JobId id) const;

  /// Cumulative busy-core-seconds (integrated min(n, cores), *not* reduced
  /// by the contention factor: a thrashing CPU is still a busy CPU, which is
  /// exactly why hardware-only autoscalers get fooled).
  double busy_core_seconds() const;

  /// Cumulative CPU-seconds of useful work completed.
  double work_done() const;

 private:
  /// One active job, in a slot recycled through a free list so a warm
  /// resource allocates nothing per job.
  struct Job {
    double finish_tag = 0.0;  ///< virtual clock value at which the job ends
    double submit_v = 0.0;    ///< virtual clock value at submission
    JobId id = 0;             ///< 0 while the slot is free
    std::uint32_t next_free = 0;
    CompletionCallback on_complete;
  };
  /// Heap entries outlive aborted jobs (lazy deletion); an entry is live iff
  /// its slot still holds its id — ids are never reused, so that test
  /// suffices.
  struct HeapEntry {
    double finish_tag = 0.0;
    JobId id = 0;
    std::uint32_t slot = 0;
  };

  double per_job_rate() const;
  void advance_to_now();
  void reschedule_completion();
  void on_completion_event();
  void heap_push(HeapEntry entry);
  void heap_pop();
  void prune_stale_heap_top();
  std::uint32_t find_slot(JobId id) const;
  void release_slot(std::uint32_t slot);

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  Simulation& sim_;
  int cores_;
  double speed_;
  ContentionModel contention_;

  std::vector<Job> jobs_;  ///< slots, live and free
  std::uint32_t free_head_ = kNoSlot;
  std::size_t active_ = 0;       ///< live slots
  std::vector<HeapEntry> heap_;  ///< min-heap on (finish_tag, id)
  JobId next_id_ = 1;
  SimTime last_update_ = 0.0;
  EventHandle completion_event_;

  /// Virtual service clock: cumulative per-job service delivered during the
  /// current busy period (rebased to 0 whenever the resource goes idle, so
  /// finish tags keep full double precision over arbitrarily long runs).
  double v_ = 0.0;
  /// Sum of submit_v over active jobs — lets work_done() credit the partial
  /// service of in-flight jobs in O(1): sum(v_ - submit_v) over live jobs.
  double sum_submit_v_ = 0.0;

  double busy_core_seconds_ = 0.0;
  /// Work credited to jobs that already left (completed or aborted).
  double retired_work_ = 0.0;
  /// Callback scratch reused across completion events (swap-guarded, so a
  /// callback resubmitting into this resource cannot alias the iteration).
  std::vector<std::pair<JobId, CompletionCallback>> done_scratch_;
};

}  // namespace conscale
