#include "workload/population.h"

#include <algorithm>
#include <cmath>

namespace conscale {

void ClientStats::merge(const ClientStats& other) {
  issued += other.issued;
  completed += other.completed;
  rejected += other.rejected;
  response_times.merge(other.response_times);
}

ClosedLoopCore::ClosedLoopCore(Simulation& sim, std::uint64_t group,
                               WakeHandler on_wake,
                               const WorkloadTrace& trace, std::size_t share,
                               std::size_t shares)
    : sim_(sim), group_(group), on_wake_(std::move(on_wake)), trace_(trace),
      share_(share), shares_(std::max<std::size_t>(shares, 1)) {}

void ClosedLoopCore::wake_after(std::uint32_t slot, SimDuration delay,
                                std::uint64_t seq) {
  const Wake wake{sim_.now() + std::max(delay, 0.0), seq, slot};
  const bool earliest = wakes_.empty() || later(wakes_.front(), wake);
  wakes_.push_back(wake);
  std::push_heap(wakes_.begin(), wakes_.end(), later);
  if (earliest) {
    // Inside wake_earliest() the armed event has fired and this cancel is
    // a no-op; elsewhere it moves the kernel event to the new front.
    armed_.cancel();
    arm_earliest();
  }
}

void ClosedLoopCore::arm_earliest() {
  const Wake& next = wakes_.front();
  armed_ = group_ == 0
               ? sim_.schedule_reserved(next.time, next.sequence,
                                        [this] { wake_earliest(); })
               : sim_.schedule_keyed(next.time, group_, next.sequence,
                                     [this] { wake_earliest(); });
}

void ClosedLoopCore::wake_earliest() {
  std::pop_heap(wakes_.begin(), wakes_.end(), later);
  const std::uint32_t slot = wakes_.back().slot;
  wakes_.pop_back();
  on_wake_(slot);
  // Re-arm after the handler, unless it armed an earlier wake-up itself;
  // no other kernel event runs in between, so the order is the same.
  if (!armed_.pending() && !wakes_.empty()) arm_earliest();
}

std::size_t ClosedLoopCore::retarget(SimTime now) {
  const auto total = static_cast<std::uint64_t>(
      std::llround(std::max(trace_.users_at(now), 0.0)));
  const auto target = static_cast<std::size_t>(
      total * (share_ + 1) / shares_ - total * share_ / shares_);
  const std::size_t active = active_users();
  // Users logically alive = active minus those already marked to retire.
  const std::size_t alive = active - std::min(retire_pending_, active);
  if (target > alive) {
    const std::size_t to_add = target - alive;
    const std::size_t kept = std::min(retire_pending_, to_add);
    retire_pending_ -= kept;
    return to_add - kept;
  }
  retire_pending_ += alive - target;
  return 0;
}

std::uint32_t ClosedLoopCore::add_user() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = Slot{};
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  return slot;
}

bool ClosedLoopCore::maybe_retire(std::uint32_t slot) {
  if (retire_pending_ == 0) return false;
  --retire_pending_;
  free_.push_back(slot);
  return true;
}

void ClosedLoopCore::issue(std::uint32_t slot, SimTime now) {
  slots_[slot].issued_at = now;
  ++stats_.issued;
}

bool ClosedLoopCore::reply(std::uint32_t slot, RequestOutcome outcome,
                           SimTime now) {
  if (outcome == RequestOutcome::kRejected) {
    ++stats_.rejected;
    if (rejection_hook_) rejection_hook_();
    return false;
  }
  ++stats_.completed;
  const double rt = now - slots_[slot].issued_at;
  stats_.response_times.add(rt);
  if (completion_hook_) completion_hook_(rt);
  return true;
}

}  // namespace conscale
