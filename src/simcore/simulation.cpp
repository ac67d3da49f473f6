#include "simcore/simulation.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace conscale {

EventHandle Simulation::schedule_at(SimTime when, EventCallback callback) {
  return push(when, 0, next_sequence_++, std::move(callback));
}

EventHandle Simulation::schedule_keyed(SimTime when, std::uint64_t group,
                                       std::uint64_t seq,
                                       EventCallback callback) {
  // Group 0 is the plain events': a keyed event there could tie a plain
  // event's (time, 0, sequence) key exactly.
  if (group == 0) {
    throw std::out_of_range(
        "Simulation::schedule_keyed: group 0 belongs to plain events");
  }
  if (group > std::numeric_limits<std::uint32_t>::max()) {
    throw std::out_of_range("Simulation::schedule_keyed: group above 2^32 - 1");
  }
  return push(when, static_cast<std::uint32_t>(group), seq,
              std::move(callback));
}

EventHandle Simulation::schedule_reserved(SimTime when,
                                          std::uint64_t sequence,
                                          EventCallback callback) {
  if (sequence >= next_sequence_) {
    throw std::out_of_range(
        "Simulation::schedule_reserved: sequence was never reserved");
  }
  return push(when, 0, sequence, std::move(callback));
}

EventHandle Simulation::schedule_after(SimDuration delay,
                                       EventCallback callback) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(callback));
}

void Simulation::pop_and_release() {
  arena_.release(queue_.top().slot);
  queue_.pop();
}

bool Simulation::step() {
  while (!queue_.empty()) {
    const QueuedEvent entry = queue_.top();
    if (!arena_.live(entry.slot)) {
      pop_and_release();
      continue;
    }
    now_ = entry.time;
    ++executed_;
    // Move the callback out and recycle the slot before invoking: a handle
    // held by the callback's owner reports !pending() during the call (the
    // generation already moved on), and the callback may schedule freely —
    // including reusing this very slot — without touching freed state.
    EventCallback callback = arena_.fire(entry.slot);
    pop_and_release();
    callback();
    return true;
  }
  return false;
}

void Simulation::run_until(SimTime deadline) {
  while (!queue_.empty()) {
    // Skip cancelled entries without advancing the clock.
    if (!arena_.live(queue_.top().slot)) {
      pop_and_release();
      continue;
    }
    if (queue_.top().time > deadline) break;
    step();
  }
  now_ = std::max(now_, deadline);
}

void Simulation::run_before(SimTime bound) {
  while (!queue_.empty()) {
    if (!arena_.live(queue_.top().slot)) {
      pop_and_release();
      continue;
    }
    if (queue_.top().time >= bound) break;
    step();
  }
}

SimTime Simulation::next_event_time() {
  while (!queue_.empty()) {
    if (!arena_.live(queue_.top().slot)) {
      pop_and_release();
      continue;
    }
    return queue_.top().time;
  }
  return std::numeric_limits<SimTime>::infinity();
}

void Simulation::run_all() {
  while (step()) {
  }
}

PeriodicTask::PeriodicTask(Simulation& sim, SimDuration period,
                           std::function<void(SimTime)> callback)
    : sim_(sim), period_(period), callback_(std::move(callback)) {
  arm();
}

void PeriodicTask::arm() {
  next_ = sim_.schedule_after(period_, [this] {
    if (!running_) return;
    callback_(sim_.now());
    if (running_) arm();
  });
}

void PeriodicTask::stop() {
  running_ = false;
  next_.cancel();
}

}  // namespace conscale
