// The discrete-event simulation kernel: a virtual clock and a deterministic
// event queue. Single-threaded by design (see DESIGN.md §6.4); the model is
// concurrent, the engine is not, which gives reproducible experiments and a
// trivially race-free substrate. Each Simulation is fully self-contained
// (its event arena and queue are instance state, no globals), so
// independent runs are thread-safe by isolation and can execute
// concurrently — see experiments/parallel.h for the run-level fan-out, and
// simcore/lanes/ for the intra-run fan-out that runs several Simulations
// (one per lane) under a conservative window barrier. The queue is a binary
// heap of 24-byte entries over the arena's dense arrays (simcore/event.h):
// 52 bytes per pending event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/time_units.h"
#include "simcore/event.h"

namespace conscale {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `callback` at absolute time `when`; times in the past are
  /// clamped to `now()` (fires next, after already-queued events at now()).
  /// Every schedule_* call throws std::invalid_argument on an empty
  /// callback.
  EventHandle schedule_at(SimTime when, EventCallback callback);

  /// Schedules `callback` after `delay` seconds (negative clamps to 0).
  EventHandle schedule_after(SimDuration delay, EventCallback callback);

  /// Schedules `callback` under an explicit ordering key. Events execute in
  /// (time, group, seq) order; plain schedule_at/schedule_after events carry
  /// group 0 and the kernel's arrival counter, so at equal times they run
  /// before every keyed event and keep their historical relative order.
  /// Keyed events exist for the lane engine (simcore/lanes/): a lane actor
  /// keys its events by its globally-unique stream id and a per-stream
  /// counter, which makes same-time ordering a property of the *model*
  /// rather than of which Simulation instance the event landed in — the
  /// bit-for-bit lanes=1 vs lanes=K contract rests on this. (group, seq)
  /// pairs must never repeat at the same time. A group of 0 (the plain
  /// events') or above 2^32 - 1 throws std::out_of_range.
  EventHandle schedule_keyed(SimTime when, std::uint64_t group,
                             std::uint64_t seq, EventCallback callback);

  /// Draws the plain-event sequence number that a schedule_at call made
  /// now would take, without scheduling anything. A component that keeps
  /// its own timers (ClosedLoopCore's wake-ups) draws a key when it arms a
  /// timer and schedules under it later with schedule_reserved, so its
  /// events run where direct scheduling would have put them.
  std::uint64_t reserve_sequence() { return next_sequence_++; }

  /// Schedules a plain event under `sequence`, which must come from
  /// reserve_sequence() and be scheduled at most once while pending; a
  /// sequence not yet drawn throws std::out_of_range.
  EventHandle schedule_reserved(SimTime when, std::uint64_t sequence,
                                EventCallback callback);

  /// Runs events until the queue is empty or the next event is after
  /// `deadline`; the clock is left at min(deadline, last event time).
  void run_until(SimTime deadline);

  /// Executes every event with time strictly below `bound` and stops; the
  /// clock is left at the last executed event (never advanced to `bound`).
  /// This is the lane engine's window primitive: events at or after the
  /// window edge stay queued for later windows.
  void run_before(SimTime bound);

  /// Time of the earliest live (non-cancelled) event, or +infinity when the
  /// queue is empty. Prunes cancelled heads as a side effect.
  SimTime next_event_time();

  /// Advances the clock to `t` without executing anything (no-op if `t` is
  /// in the past). The lane engine uses this to park every lane exactly at
  /// the run's end time after the final window.
  void advance_to(SimTime t) { now_ = std::max(now_, t); }

  /// Convenience: run_until(now() + duration).
  void run_for(SimDuration duration) { run_until(now_ + duration); }

  /// Executes the single next event. Returns false if the queue is empty.
  bool step();

  /// Drains every queued event (use only in tests / bounded scenarios).
  void run_all();

  /// Events scheduled and neither fired nor cancelled.
  std::size_t pending_events() const { return arena_.live_count(); }
  std::uint64_t events_executed() const { return executed_; }

 private:
  using QueuedEvent = detail::QueuedEvent;

  // Inline in the header: the traced benchmark build hooks out-of-line
  // functions of .cpp files only, so this helper adds no traced call.
  EventHandle push(SimTime when, std::uint32_t group, std::uint64_t sequence,
                   EventCallback callback) {
    if (!callback) {
      throw std::invalid_argument(
          "Simulation: cannot schedule an empty callback");
    }
    const std::uint32_t slot = arena_.allocate(std::move(callback));
    queue_.push(QueuedEvent{std::max(when, now_), sequence, group, slot});
    return EventHandle(&arena_, slot, arena_.generation(slot));
  }

  /// Pops the queue head and recycles its arena slot.
  void pop_and_release();

  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  detail::EventArena arena_;
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>,
                      std::greater<QueuedEvent>>
      queue_;
};

/// Repeats a callback at a fixed period until stopped. Used for the 1 s
/// monitoring-agent ticks and 50 ms metric intervals.
class PeriodicTask {
 public:
  /// `callback` receives the firing time. The first firing is at
  /// `start + period`.
  PeriodicTask(Simulation& sim, SimDuration period,
               std::function<void(SimTime)> callback);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const { return running_; }
  SimDuration period() const { return period_; }

 private:
  void arm();

  Simulation& sim_;
  SimDuration period_;
  std::function<void(SimTime)> callback_;
  EventHandle next_;
  bool running_ = true;
};

}  // namespace conscale
