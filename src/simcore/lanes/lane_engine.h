// LaneEngine: conservative-synchronization parallel DES (DESIGN.md §6.6).
//
// One run's event loop is partitioned into `lanes` — each lane owns a full
// Simulation (its own event arena, queue and clock: the arena sharding) and
// hosts a disjoint set of model components. Lanes interact only through
// timestamped messages, each travelling a declared channel (from -> to,
// minimum delay) and carrying at least that channel's delay. The declared
// channels are the engine's only copy of the model's cross-lane delays, and
// it derives everything else from them: the window L (the minimum declared
// delay), the protocol (null messages only when the widest channel exceeds
// 4x the narrowest, time windows otherwise) and the anti-flood floor (L/2).
// The engine repeats conservative rounds under that protocol:
//
//   time-window    1. t_all = earliest activity anywhere
//                  2. bound = min(t_all + L, end)
//                  3. deliver messages due before the bound as keyed events
//                  4. every lane with work below the bound runs in parallel
//   null-message   per-channel bounds (Chandy–Misra–Bryant): every declared
//                  channel (j -> i, delay L_c) announces an earliest-output
//                  time. The sound EOT is conditional on j's own inputs —
//                  the fixed point eot[c] = min(na_j, min in-channel eots of
//                  j) + L_c (na_j = lane j's earliest activity), i.e. the
//                  minimum over message paths ending in c of path-source
//                  activity plus total path delay. Lane i may run to the min
//                  announced EOT over its in-channels. Announcements are
//                  demand-driven with an anti-flood floor: a fresh EOT is
//                  published only when it advances the previous announcement
//                  by at least the floor, or when a starved lane (bound <=
//                  na, work remaining) demands it. See DESIGN.md §6.6 for
//                  the deadlock-avoidance argument (the floor delays bounds,
//                  never results).
//
// Time windows are optimal when channel delays are near-uniform (a star of
// equal-latency channels loses nothing to the global minimum); per-channel
// null messages pay off only under strong skew, where distant lane pairs
// can run far ahead of the tightest channel.
//
// Safety (both protocols): a message posted at send >= na with delay >= L
// delivers at >= na + L >= every bound derived from na + L (floating-point
// addition is monotone), so nothing a lane does inside a round can affect
// any lane's same round — each lane's round execution is causally closed.
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
// clock reads t0, and the round barrier's mutex gives the happens-before
// edge that makes the cross-lane reads race-free.
//
// Determinism (the K-threads vs 1-thread bit-for-bit contract): the
// partition (which component lives on which lane) is a *model* parameter and
// `threads` only sets worker-pool width. Within one Simulation, keyed events
// execute in (time, stream, seq) order regardless of which round delivered
// them; across Simulations, same-time events belong to non-interacting
// components except at serial instants, which run in fixed lane order on one
// thread. Round structure — window sizes, protocol, solo fast paths — can
// change *when* an event runs but never its key order, so results are
// invariant to both the thread count and the synchronization protocol.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/time_units.h"
#include "simcore/simulation.h"

namespace conscale::lanes {

/// The synchronization protocol the engine derives from its channels.
enum class Protocol { kTimeWindow, kNullMessage };

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
  std::uint64_t nulls_announced = 0;   ///< CMB: channel EOT announcements
  std::uint64_t nulls_suppressed = 0;  ///< CMB: announcements under the floor
};

/// One partition of the run: a self-contained Simulation plus the outbox
/// the engine drains at every barrier. The outbox is touched only by the
/// lane's executing thread during a round and by the coordinator between
/// rounds; the barrier's mutex orders the two.
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
};

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
  /// Null messages when the widest declared channel delay is more than 4x
  /// the narrowest, time windows otherwise.
  Protocol protocol() const;

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
  /// the future. Prefer LaneActor::post.
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
    SimTime announced_eot = 0.0;  // initialized to -inf before run()
  };

  void start_workers();
  void run_serial_instant(SimTime t0, SimTime bound);
  void compute_bounds(SimTime t_all, SimTime cap);
  void deliver_pending(std::size_t dest, SimTime bound);
  void collect_outboxes();
  void worker_loop();
  void drain_work_queue();
  SimTime next_activity(std::size_t lane_index);

  // Derived from the channels when run() starts.
  SimDuration window_ = 0.0;
  Protocol protocol_ = Protocol::kTimeWindow;
  bool serialize_lane0_;
  std::size_t thread_count_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t next_stream_ = 1;
  /// Per-destination min-heaps (by deliver_time) of routed-but-undelivered
  /// messages. Only the coordinator touches them, always between rounds.
  std::vector<std::vector<LaneMessage>> pending_;
  std::vector<Channel> channels_;
  /// Channel indices by endpoint, for post validation and CMB bounds.
  std::vector<std::vector<std::size_t>> channels_from_;
  std::vector<std::vector<std::size_t>> channels_to_;
  /// Scratch, reused every round (sized lanes / channels once).
  std::vector<SimTime> activity_;
  std::vector<SimTime> bounds_;
  std::vector<SimTime> fresh_eot_;
  SimTime end_bound_ = 0.0;
  LaneEngineStats stats_;

  // --- worker pool (work-pulling; the coordinator pulls too) ---
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t round_generation_ = 0;
  /// (lane, bound) pairs for the current parallel round; written by the
  /// coordinator under the mutex before the generation bump, read by
  /// workers after observing it.
  std::vector<std::pair<std::size_t, SimTime>> round_work_;
  std::atomic<std::size_t> work_cursor_{0};
  std::size_t workers_running_ = 0;
  bool shutdown_ = false;
  std::vector<std::exception_ptr> worker_errors_;
  std::vector<std::thread> workers_;
};

}  // namespace conscale::lanes
