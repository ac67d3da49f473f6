// LaneActor: the scheduling discipline a model component must follow to be
// placeable on any lane without perturbing results (DESIGN.md §6.6).
//
// An actor owns a globally-unique stream id and a monotonic counter; every
// event it schedules and every message it posts is keyed (stream, counter).
// Because neither depends on the lane count or on what other lanes do, the
// key stream is identical for lanes=1 and lanes=K — which is what makes the
// two executions byte-identical. Components that live permanently on the
// system lane (lane 0) and never share a Simulation with another lane's
// components (the serving system, the controllers, the warehouse) keep using
// plain schedule_at unchanged; only components whose events could interleave
// with another lane's at equal times — i.e. everything that is actually
// partitioned — must go through an actor.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "simcore/lanes/lane_engine.h"

namespace conscale::lanes {

class LaneActor {
 public:
  /// Throws std::out_of_range when `lane` is not one of the engine's lanes
  /// (before a stream id is taken, so the allocation order is unchanged).
  LaneActor(LaneEngine& engine, std::size_t lane)
      : engine_(engine),
        lane_(checked_lane(engine, lane)),
        stream_(engine.new_stream()) {}

  std::size_t lane() const { return lane_; }
  std::uint64_t stream() const { return stream_; }
  Simulation& sim() { return engine_.lane(lane_).sim(); }
  LaneEngine& engine() { return engine_; }

 protected:
  /// Keyed local event: executes on this actor's lane in canonical order.
  EventHandle schedule_at(SimTime when, EventCallback callback) {
    return sim().schedule_keyed(when, stream_, next_seq_++,
                                std::move(callback));
  }

  EventHandle schedule_after(SimDuration delay, EventCallback callback) {
    return schedule_at(sim().now() + std::max(delay, 0.0),
                       std::move(callback));
  }

  /// Draws the stream key a schedule_at call made now would take, without
  /// scheduling: the keyed counterpart of Simulation::reserve_sequence, for
  /// a component that schedules under the key later with
  /// sim().schedule_keyed(when, stream(), seq, ...).
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Cross-lane message: `callback` executes on `dest_lane` at now+delay.
  /// `delay` must be at least the declared lane() -> dest_lane channel's.
  void post(std::size_t dest_lane, SimDuration delay, EventCallback callback) {
    engine_.post(lane_, dest_lane, sim().now() + delay, stream_, next_seq_++,
                 std::move(callback));
  }

 private:
  static std::size_t checked_lane(const LaneEngine& engine,
                                  std::size_t lane) {
    if (lane >= engine.lane_count()) {
      throw std::out_of_range("LaneActor: no such lane");
    }
    return lane;
  }

  LaneEngine& engine_;
  std::size_t lane_;
  std::uint64_t stream_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace conscale::lanes
