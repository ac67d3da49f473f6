// LaneEngine: conservative-synchronization parallel DES (DESIGN.md §6.6).
//
// One run's event loop is partitioned into `lanes` — each lane owns a full
// Simulation (its own event arena, queue and clock: the arena sharding) and
// hosts a disjoint set of model components. Lanes interact only through
// timestamped messages, each travelling a declared channel (from -> to,
// minimum delay) and carrying at least that channel's delay. The declared
// channels are the engine's only copy of the model's cross-lane delays, and
// the window L is the minimum declared delay. The engine repeats
// time-window rounds:
//
//   1. t_all = earliest activity anywhere (next event or inbox message)
//   2. bound = min(t_all + L, t0, end)  (t0: the control lane, see below)
//   3. every lane with work below the bound runs to it in parallel; its
//      task first schedules the lane's whole inbox as keyed events
//   4. the barrier appends the messages the round posted to their
//      destinations' inboxes
//
// Every round is a global barrier, so the narrowest channel sets the round
// count whatever the wider channels carry. Per-channel bounds (Chandy–
// Misra–Bryant null messages) would only let idle lanes run ahead inside a
// round; on the tier cut they saved no measurable time (EXPERIMENTS.md), so
// the time window is the engine's only protocol.
//
// Safety: a message posted at send >= t_all with delay >= L delivers at
// >= t_all + L >= bound (floating-point addition is monotone), so nothing a
// lane does inside a round can affect any lane's same round — each lane's
// round execution is causally closed.
//
// Early injection: a lane's task schedules every message in its inbox, also
// those due rounds later (a message over a channel wider than L). That
// cannot reorder anything: the lane's queue orders events by (time, stream,
// seq) whatever the order they were scheduled in, a keyed message never
// shares a key with a plain event (group 0), and the message sits below no
// bound before its time. A lane's earliest activity, min(next event, inbox
// minimum), does not depend on when its messages are scheduled, so neither
// do the rounds.
//
// Barrier: the coordinator (the thread in run()) publishes a round by
// bumping an atomic generation, runs its own share of the lanes, and waits
// until an atomic count of running workers reaches 0. Every waiter — a
// worker for the next generation, the coordinator for the count — spins
// a few hundred CPU pause instructions, then yields a few times, then parks
// on the mutex and a condition variable with a predicate
// (detail::kBarrierSpin).
// Spinning covers the coordinator's short gap between rounds; the yields
// and the park keep an oversubscribed host (more threads than CPUs) moving.
// The acquire/release pairs on the two atomics order every lane's state,
// outbox and inbox between the thread that ran it and the next one.
//
// Serialized control lane (tier-laned layouts): when
// `options.serialize_lane0` is set, lane 0 hosts the control plane
// (controllers, agents, monitor coarse tick, warehouse queries) whose events
// *directly* read and mutate state owned by other lanes. The engine never
// runs lane 0 concurrently: every parallel bound is capped at t0 (lane 0's
// earliest activity), and when the global minimum reaches t0 the engine runs
// a *serial instant* — every lane's clock is advanced to t0 and all lanes
// are drained through bound nextafter(t0) on the coordinator thread, lane 0
// first, until quiescent. Control code therefore executes exactly as in a
// single-threaded run: all events before t0 everywhere have completed, every
// clock reads t0, and the round barrier's acquire/release edges make the
// cross-lane reads race-free.
//
// Determinism (the K-threads vs 1-thread bit-for-bit contract): the
// partition (which component lives on which lane) is a *model* parameter and
// `threads` only sets worker-pool width. Within one Simulation, keyed events
// execute in (time, stream, seq) order regardless of which round scheduled
// them; across Simulations, same-time events belong to non-interacting
// components except at serial instants, which run in fixed lane order on one
// thread. Round structure — window sizes, solo fast paths — can change
// *when* an event runs but never its key order, so results are invariant to
// the thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/time_units.h"
#include "simcore/simulation.h"

namespace conscale::lanes {

/// Kept for benchmark/driver.cpp only; the next benchmark PR deletes it.
enum class Protocol { kTimeWindow };

/// Kept for benchmark/driver.cpp only; the next benchmark PR deletes it.
std::string to_string(Protocol protocol);

/// A timestamped cross-lane interaction. `stream`/`seq` are the *origin*
/// actor's canonical key; the destination lane schedules the callback as a
/// keyed event under exactly this key, so delivery order at equal times is
/// a property of the model, not of the partition.
struct LaneMessage {
  SimTime deliver_time = 0.0;
  std::uint64_t stream = 0;
  std::uint64_t seq = 0;
  std::size_t dest = 0;
  EventCallback fn;
};

struct LaneEngineStats {
  std::uint64_t windows = 0;       ///< rounds executed (all kinds)
  std::uint64_t messages = 0;      ///< cross-lane messages routed
  std::uint64_t events = 0;        ///< events executed, summed over lanes
  std::uint64_t serial_rounds = 0; ///< control-lane serial instants
  std::uint64_t solo_rounds = 0;   ///< rounds with <=1 active lane (no barrier)
  /// Always 0; kept for benchmark/driver.cpp, the next benchmark PR deletes it.
  std::uint64_t nulls_announced = 0;
  /// Always 0; kept for benchmark/driver.cpp, the next benchmark PR deletes it.
  std::uint64_t nulls_suppressed = 0;
};

/// One partition of the run: a self-contained Simulation, the outbox the
/// engine drains at every barrier, and the inbox the barrier fills. Both
/// are touched only by the thread running the lane during a round and by
/// the coordinator between rounds; the barrier's atomics order the two.
class Lane {
 public:
  Lane() = default;
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  Simulation& sim() { return sim_; }

 private:
  friend class LaneEngine;
  Simulation sim_;
  std::vector<LaneMessage> outbox_;
  /// Messages routed here and not yet scheduled into sim_, in arrival
  /// order, and the earliest delivery time among them (+inf when empty).
  std::vector<LaneMessage> inbox_;
  SimTime inbox_min_ = std::numeric_limits<SimTime>::infinity();
};

namespace detail {

/// How long a barrier waiter keeps the CPU before it parks: CPU pause
/// instructions first, then yields. About 7.5 µs + 5 µs on a 4-vCPU Xeon;
/// a 50 µs budget raised `million_sessions` CPU time by a quarter
/// (EXPERIMENTS.md), so it stays short.
struct SpinBudget {
  int pauses;
  int yields;
};
inline constexpr SpinBudget kBarrierSpin{500, 20};

/// One spin-wait step: a pause instruction where the CPU has one.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Waits until `ready()` holds: spins, then yields, then parks on `cv`
/// under `mutex` (kBarrierSpin). The thread that makes `ready()` true
/// wakes it with wake(). Header-inline, so the traced benchmark build
/// counts the wait as the calling function's time.
template <typename Ready>
inline void barrier_wait(std::mutex& mutex, std::condition_variable& cv,
                         Ready ready) {
  for (int i = 0; i < kBarrierSpin.pauses; ++i) {
    if (ready()) return;
    cpu_relax();
  }
  for (int i = 0; i < kBarrierSpin.yields; ++i) {
    if (ready()) return;
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, ready);
}

/// Wakes the threads parked in barrier_wait on `cv`, after the caller made
/// their predicate true. Taking `mutex` first orders the wake-up after a
/// parking waiter's last check of its predicate, so none misses it.
inline void wake(std::mutex& mutex, std::condition_variable& cv) {
  { const std::lock_guard<std::mutex> lock(mutex); }
  cv.notify_all();
}

}  // namespace detail

class LaneEngine {
 public:
  struct Options {
    std::size_t lanes = 1;
    /// Worker-pool width, capped at `lanes`. Lanes are a model parameter;
    /// threads are not — results are identical for every value.
    std::size_t threads = 1;
    /// Serialize lane 0 (see header comment). Required whenever lane-0
    /// events directly touch state owned by other lanes.
    bool serialize_lane0 = false;
  };

  explicit LaneEngine(Options options);
  ~LaneEngine();
  LaneEngine(const LaneEngine&) = delete;
  LaneEngine& operator=(const LaneEngine&) = delete;

  std::size_t lane_count() const { return lanes_.size(); }
  std::size_t thread_count() const { return thread_count_; }
  Lane& lane(std::size_t index) { return *lanes_[index]; }

  /// The synchronization window: the minimum declared channel delay, or
  /// +inf while no channel is declared (lanes that never exchange messages
  /// need no barrier before the end of the run).
  SimDuration lookahead() const;

  /// Declares a directed cross-lane channel with a guaranteed minimum model
  /// delay. Every post must travel a declared channel and carry at least
  /// its delay — validated at post time (throws std::runtime_error).
  /// Redeclaring a pair keeps the minimum. Call before run(); self-channels
  /// (from == to) and delays <= 0 are rejected.
  void declare_channel(std::size_t from, std::size_t to, SimDuration min_delay);

  /// Hands out the next globally-unique actor stream id (starts at 1; 0 is
  /// the plain-event group). Allocation order must be partition-independent:
  /// construct actors in a fixed order regardless of the lane count.
  std::uint64_t new_stream() { return next_stream_++; }

  /// Posts a message from `from` (which must be the lane currently
  /// executing, or any lane between rounds) across the declared channel
  /// from -> dest. `deliver_time` must be at least the channel's delay in
  /// the future. Throws std::out_of_range for a lane index that does not
  /// exist or a `stream` of 0 (new_stream() never hands it out), and
  /// std::invalid_argument for an empty `fn`. Prefer LaneActor::post.
  void post(std::size_t from, std::size_t dest, SimTime deliver_time,
            std::uint64_t stream, std::uint64_t seq, EventCallback fn);

  /// Runs every lane to `duration` (inclusive, like Simulation::run_until)
  /// under the conservative round loop, then parks every lane clock at
  /// `duration`. Rethrows the first model exception raised on a worker
  /// lane.
  void run(SimTime duration);

  const LaneEngineStats& stats() const { return stats_; }

 private:
  struct Channel {
    std::size_t from = 0;
    std::size_t to = 0;
    SimDuration min_delay = 0.0;
  };

  void start_workers();
  void run_serial_instant(SimTime t0, SimTime bound);
  void run_lane(std::size_t lane_index, SimTime bound);
  void collect_outboxes();
  void worker_loop();
  void drain_work_queue();
  SimTime next_activity(std::size_t lane_index);

  bool serialize_lane0_;
  std::size_t thread_count_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t next_stream_ = 1;
  std::vector<Channel> channels_;
  /// Channel indices by source lane, for post validation.
  std::vector<std::vector<std::size_t>> channels_from_;
  /// Each lane's earliest activity; scratch reused every round.
  std::vector<SimTime> activity_;
  LaneEngineStats stats_;

  // --- worker pool (work-pulling; the coordinator pulls too) ---
  /// Guards only the parking half of the barrier (barrier_wait, wake).
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  /// Bumped (release) by the coordinator to start a round; workers wait
  /// for it to move (acquire).
  std::atomic<std::uint64_t> round_generation_{0};
  /// Workers still in the current round; each decrements it (release)
  /// when the work queue is empty, the coordinator waits for 0 (acquire).
  std::atomic<std::size_t> workers_running_{0};
  std::atomic<bool> shutdown_{false};
  /// The current parallel round: the lanes with work and the bound they all
  /// run to. Written by the coordinator before it bumps the generation,
  /// read by workers after they observe the bump.
  std::vector<std::size_t> round_work_;
  SimTime round_bound_ = 0.0;
  std::atomic<std::size_t> work_cursor_{0};
  std::vector<std::exception_ptr> worker_errors_;
  std::vector<std::thread> workers_;
};

}  // namespace conscale::lanes
