#include "resources/ps_resource.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace conscale {

namespace {
// Completion times computed from double arithmetic can land a hair before
// the job's remaining work reaches zero; treat anything below this as done.
constexpr double kWorkEpsilon = 1e-12;

// Min-heap on (finish_tag, id): std::*_heap build a max-heap under the
// comparator, so "less" here means "completes later".
bool completes_later(const ProcessorSharingResource::JobId lhs_id,
                     double lhs_tag,
                     const ProcessorSharingResource::JobId rhs_id,
                     double rhs_tag) {
  if (lhs_tag != rhs_tag) return lhs_tag > rhs_tag;
  return lhs_id > rhs_id;
}
}  // namespace

ProcessorSharingResource::ProcessorSharingResource(Simulation& sim, int cores,
                                                   double speed,
                                                   ContentionModel contention)
    : sim_(sim), cores_(cores), speed_(speed), contention_(contention),
      last_update_(sim.now()) {
  assert(cores_ >= 1);
  assert(speed_ > 0.0);
}

ProcessorSharingResource::~ProcessorSharingResource() {
  completion_event_.cancel();
}

void ProcessorSharingResource::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return completes_later(a.id, a.finish_tag, b.id,
                                          b.finish_tag);
                 });
}

void ProcessorSharingResource::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const HeapEntry& a, const HeapEntry& b) {
                  return completes_later(a.id, a.finish_tag, b.id,
                                         b.finish_tag);
                });
  heap_.pop_back();
}

void ProcessorSharingResource::prune_stale_heap_top() {
  while (!heap_.empty() && jobs_[heap_.front().slot].id != heap_.front().id) {
    heap_pop();
  }
}

std::uint32_t ProcessorSharingResource::find_slot(JobId id) const {
  if (id == 0) return kNoSlot;  // free slots carry id 0
  for (std::uint32_t slot = 0; slot < jobs_.size(); ++slot) {
    if (jobs_[slot].id == id) return slot;
  }
  return kNoSlot;
}

void ProcessorSharingResource::release_slot(std::uint32_t slot) {
  Job& job = jobs_[slot];
  job.id = 0;
  job.on_complete = nullptr;
  job.next_free = free_head_;
  free_head_ = slot;
  --active_;
}

double ProcessorSharingResource::per_job_rate() const {
  const auto n = static_cast<double>(active_);
  if (n == 0.0) return 0.0;
  const double share = std::min(1.0, static_cast<double>(cores_) / n);
  return speed_ * share * contention_.efficiency(n);
}

void ProcessorSharingResource::advance_to_now() {
  const SimTime now = sim_.now();
  const double elapsed = now - last_update_;
  last_update_ = now;
  if (elapsed <= 0.0 || active_ == 0) return;
  const auto n = static_cast<double>(active_);
  busy_core_seconds_ += elapsed * std::min(n, static_cast<double>(cores_));
  const double served = elapsed * per_job_rate();
  if (served <= 0.0) return;
  v_ += served;
}

void ProcessorSharingResource::reschedule_completion() {
  completion_event_.cancel();
  if (active_ == 0) {
    // Idle: rebase the virtual clock so a new busy period starts at V = 0
    // and finish tags never drift far from the magnitude of the demands.
    v_ = 0.0;
    sum_submit_v_ = 0.0;
    heap_.clear();
    return;
  }
  prune_stale_heap_top();
  assert(!heap_.empty());
  const double rate = per_job_rate();
  assert(rate > 0.0);
  const double min_remaining = heap_.front().finish_tag - v_;
  const double delay = std::max(min_remaining, 0.0) / rate;
  completion_event_ =
      sim_.schedule_after(delay, [this] { on_completion_event(); });
}

void ProcessorSharingResource::on_completion_event() {
  advance_to_now();
  prune_stale_heap_top();
  if (heap_.empty()) return;  // every candidate was aborted in the meantime
  // Complete every job whose tag the clock has reached (ties finish
  // together). If floating-point rounding left the frontrunner a sliver
  // short — so small that the rescheduled delay could underflow below one
  // ulp of the clock — complete it now rather than risk a zero-progress
  // event loop.
  double threshold = kWorkEpsilon;
  const double min_remaining = heap_.front().finish_tag - v_;
  if (min_remaining > threshold && min_remaining < 1e-9) {
    threshold = min_remaining;
  }
  auto done = std::move(done_scratch_);
  done.clear();
  while (!heap_.empty()) {
    prune_stale_heap_top();
    if (heap_.empty() || heap_.front().finish_tag - v_ > threshold) break;
    const HeapEntry top = heap_.front();
    heap_pop();
    Job& job = jobs_[top.slot];
    assert(job.id == top.id);
    // Credit exactly the service delivered: the full demand, minus the
    // sub-epsilon sliver when the event fired a hair early.
    retired_work_ += std::min(top.finish_tag, v_) - job.submit_v;
    sum_submit_v_ -= job.submit_v;
    done.emplace_back(top.id, std::move(job.on_complete));
    release_slot(top.slot);
  }
  // Tied jobs complete in submission order regardless of heap layout.
  std::sort(done.begin(), done.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  reschedule_completion();
  // Callbacks run after internal state is consistent: they may submit new
  // jobs to this very resource.
  for (auto& [id, callback] : done) callback();
  done.clear();
  done_scratch_ = std::move(done);
}

ProcessorSharingResource::JobId ProcessorSharingResource::submit(
    double work, CompletionCallback on_complete) {
  advance_to_now();
  const JobId id = next_id_++;
  const double demand = std::max(work, 0.0);
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = jobs_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(jobs_.size());
    jobs_.emplace_back();
  }
  Job& job = jobs_[slot];
  job.finish_tag = v_ + demand;
  job.submit_v = v_;
  job.id = id;
  job.on_complete = std::move(on_complete);
  ++active_;
  sum_submit_v_ += v_;
  heap_push({v_ + demand, id, slot});
  reschedule_completion();
  return id;
}

bool ProcessorSharingResource::abort(JobId id) {
  const std::uint32_t slot = find_slot(id);
  if (slot == kNoSlot) return false;
  advance_to_now();
  const Job& job = jobs_[slot];
  const double demand = job.finish_tag - job.submit_v;
  retired_work_ += std::clamp(v_ - job.submit_v, 0.0, demand);
  sum_submit_v_ -= job.submit_v;
  release_slot(slot);  // the heap entry goes stale and is skipped lazily
  reschedule_completion();
  return true;
}

std::size_t ProcessorSharingResource::abort_all() {
  advance_to_now();
  const std::size_t killed = active_;
  retired_work_ += static_cast<double>(killed) * v_ - sum_submit_v_;
  jobs_.clear();
  free_head_ = kNoSlot;
  active_ = 0;
  sum_submit_v_ = 0.0;
  reschedule_completion();  // empties and rebases
  return killed;
}

void ProcessorSharingResource::set_cores(int cores) {
  assert(cores >= 1);
  advance_to_now();
  cores_ = cores;
  reschedule_completion();
}

void ProcessorSharingResource::set_speed(double speed) {
  assert(speed > 0.0);
  advance_to_now();
  speed_ = speed;
  reschedule_completion();
}

void ProcessorSharingResource::set_contention(ContentionModel contention) {
  advance_to_now();
  contention_ = contention;
  reschedule_completion();
}

double ProcessorSharingResource::remaining(JobId id) const {
  const std::uint32_t slot = find_slot(id);
  if (slot == kNoSlot) return -1.0;
  return std::max(jobs_[slot].finish_tag - v_, 0.0);
}

double ProcessorSharingResource::busy_core_seconds() const {
  // Include the partially-integrated current interval so 1 s pollers see
  // up-to-date utilization.
  double busy = busy_core_seconds_;
  if (active_ > 0) {
    const double elapsed = sim_.now() - last_update_;
    const auto n = static_cast<double>(active_);
    busy += std::max(elapsed, 0.0) * std::min(n, static_cast<double>(cores_));
  }
  return busy;
}

double ProcessorSharingResource::work_done() const {
  // Retired jobs carry their full credited service; live jobs have received
  // v_ - submit_v each, summed in O(1) via the maintained sum.
  return retired_work_ +
         static_cast<double>(active_) * v_ - sum_submit_v_;
}

}  // namespace conscale
