// SessionShard: one partition of a lane-sharded closed-loop session
// population (DESIGN.md §6.6). Semantics mirror ClientPopulation — each
// session thinks (exponential), issues one request, and waits for the reply
// before thinking again, while the shard's population tracks its integer
// share of the WorkloadTrace — but every interaction with the serving
// system crosses a lane boundary: requests travel to a ShardGateway on the
// system lane with the client<->frontend network latency, and replies
// travel back the same way. That latency is the model's natural lookahead,
// which is what lets S shard cells run on K threads in parallel
// (simcore/lanes/).
//
// Determinism: the shard is a LaneActor — think timers and posts carry the
// shard's canonical (stream, seq) keys, the RNG is shard-local, and the
// shard's share of the trace depends only on (shard_index, shard_count).
// Nothing observes the thread count, so lanes=1 and lanes=K replay the
// exact same session histories.
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "simcore/lanes/actor.h"
#include "workload/mix.h"
#include "workload/request.h"
#include "workload/trace.h"

namespace conscale {

class SessionShard;

/// The system-lane side of the shard protocol (cluster/lane_gateway.h
/// implements it). `on_request` executes on the gateway's lane at the
/// request's arrival instant; the gateway replies with a posted message
/// that invokes SessionShard::on_reply back on the shard's lane.
class ShardGateway {
 public:
  virtual ~ShardGateway() = default;
  virtual void on_request(const RequestContext& ctx, SessionShard& from,
                          std::uint32_t user_slot) = 0;
};

class SessionShard final : public lanes::LaneActor {
 public:
  struct Params {
    double think_time_mean = 1.5;  ///< seconds; 0 = closed-loop stress mode
    SimDuration adjust_period = 0.5;  ///< trace-tracking cadence
    std::uint64_t seed = 7;           ///< shard-local RNG seed
    /// Client<->frontend one-way network latency. Must be at least the
    /// declared shard -> gateway channel delay (the engine checks every
    /// post).
    SimDuration net_delay = 0.05;
  };

  SessionShard(lanes::LaneEngine& engine, std::size_t lane,
               std::size_t shard_index, std::size_t shard_count,
               const WorkloadTrace& trace, const RequestMix& mix,
               ShardGateway& gateway, std::size_t gateway_lane, Params params);
  SessionShard(const SessionShard&) = delete;
  SessionShard& operator=(const SessionShard&) = delete;

  /// Protocol entry: the gateway's reply, executing on this shard's lane at
  /// the client-perceived response instant.
  void on_reply(std::uint32_t user_slot, RequestOutcome outcome);

  std::size_t shard_index() const { return shard_index_; }
  /// Sessions currently alive on this shard (including those marked to
  /// retire at their next activity, mirroring ClientPopulation).
  std::size_t active_users() const {
    return users_.size() - free_slots_.size();
  }
  std::uint64_t requests_issued() const { return issued_; }
  std::uint64_t requests_completed() const { return completed_; }
  std::uint64_t requests_rejected() const { return rejected_; }
  /// Client-perceived response times (network latency both ways included).
  const LogHistogram& response_times() const { return rt_histogram_; }

 private:
  struct User {
    bool live = false;
    bool in_flight = false;
    SimTime issued_at = 0.0;
    EventHandle think_event;
  };

  /// This shard's integer share of `total` sessions: contiguous rounding
  /// partition — shard i owns [total*i/S, total*(i+1)/S), so the shares sum
  /// to `total` exactly and depend only on (i, S).
  std::uint64_t share_of(std::uint64_t total) const;

  void arm_adjust();
  void adjust_population(SimTime now);
  void spawn_user();
  void user_think(std::uint32_t slot);
  void user_submit(std::uint32_t slot);
  bool maybe_retire(std::uint32_t slot);

  std::size_t shard_index_;
  std::size_t shard_count_;
  const WorkloadTrace& trace_;
  const RequestMix& mix_;
  ShardGateway& gateway_;
  std::size_t gateway_lane_;
  Params params_;
  Rng rng_;

  std::vector<User> users_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t retire_pending_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  LogHistogram rt_histogram_;
};

}  // namespace conscale
