// The shard protocol of the lane engine (DESIGN.md §6.6): SessionShard, one
// partition of a lane-sharded closed-loop population, and LaneGateway, its
// endpoint on the system's entry cell.
//
// A shard's users are ClientPopulation's (workload/population.h): each
// thinks (exponential), issues one request and waits for the reply, while
// the shard tracks its part of the WorkloadTrace. But every interaction with
// the serving system crosses a lane boundary: requests travel to the
// gateway with the client<->frontend network latency, and replies travel
// back the same way. That latency is the model's natural lookahead, which
// is what lets S shard cells run on K threads in parallel (simcore/lanes/).
//
// Determinism: shard and gateway are LaneActors, so think timers and posts
// carry canonical (stream, seq) keys, the shard's RNG is shard-local, and
// its part of the trace depends only on (shard_index, shard_count). The
// gateway's replies draw their keys in entry-cell execution order, which the
// ordering contract (DESIGN.md §8) makes identical for every thread count.
// Nothing observes the thread count, so lanes=1 and lanes=K replay the
// exact same session histories.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "simcore/lanes/actor.h"
#include "workload/mix.h"
#include "workload/population.h"
#include "workload/request.h"
#include "workload/trace.h"

namespace conscale {

class LaneGateway;

class SessionShard final : public lanes::LaneActor {
 public:
  struct Params {
    double think_time_mean = 1.5;  ///< seconds; 0 = closed-loop stress mode
    std::uint64_t seed = 7;        ///< shard-local RNG seed
  };

  /// Requests travel to `gateway`'s lane with its net_delay().
  SessionShard(lanes::LaneEngine& engine, std::size_t lane,
               std::size_t shard_index, std::size_t shard_count,
               const WorkloadTrace& trace, const RequestMix& mix,
               LaneGateway& gateway, Params params);
  SessionShard(const SessionShard&) = delete;
  SessionShard& operator=(const SessionShard&) = delete;
  // Destruction cancels the core's one armed wake-up event, so the lane
  // engine must outlive its shards.

  /// Protocol entry: the gateway's reply, executing on this shard's lane at
  /// the client-perceived response instant.
  void on_reply(std::uint32_t user_slot, RequestOutcome outcome);

  /// Sessions alive on this shard, including those marked to retire.
  std::size_t active_users() const { return core_.active_users(); }
  /// Client-perceived requests (network latency both ways included).
  const ClientStats& stats() const { return core_.stats(); }

 private:
  void arm_tracking();
  void track(SimTime now);
  void user_think(std::uint32_t slot);
  void user_submit(std::uint32_t slot);

  std::size_t shard_index_;
  const RequestMix& mix_;
  LaneGateway& gateway_;
  Params params_;
  Rng rng_;
  ClosedLoopCore core_;
  std::uint64_t next_request_id_ = 1;
};

/// The entry-cell endpoint of the shard protocol. Requests posted by shards
/// arrive here after the one-way network latency, get re-stamped to their
/// arrival instant and enter the serving system through `submit`. When the
/// system finishes a request, the gateway fires the hooks at the
/// client-perceived completion instant and posts the reply back across the
/// same channel to the owning shard.
class LaneGateway final : public lanes::LaneActor {
 public:
  /// `net_delay` is the client<->frontend one-way network latency, both
  /// ways: at least the declared channel delay between this lane and every
  /// shard's (the engine checks every post).
  LaneGateway(lanes::LaneEngine& engine, std::size_t lane, SubmitFn submit,
              SimDuration net_delay)
      : LaneActor(engine, lane), submit_(std::move(submit)),
        net_delay_(net_delay) {}

  SimDuration net_delay() const { return net_delay_; }

  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }
  void set_rejection_hook(RejectionHook hook) {
    rejection_hook_ = std::move(hook);
  }

  /// Protocol entry: a shard's request, executing on the gateway's lane at
  /// its arrival instant.
  void on_request(const RequestContext& ctx, SessionShard& from,
                  std::uint32_t user_slot);

 private:
  SubmitFn submit_;
  SimDuration net_delay_;
  CompletionHook completion_hook_;
  RejectionHook rejection_hook_;
};

}  // namespace conscale
