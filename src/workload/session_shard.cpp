#include "workload/session_shard.h"

namespace conscale {

SessionShard::SessionShard(lanes::LaneEngine& engine, std::size_t lane,
                           std::size_t shard_index, std::size_t shard_count,
                           const WorkloadTrace& trace, const RequestMix& mix,
                           LaneGateway& gateway, Params params)
    : LaneActor(engine, lane), shard_index_(shard_index), mix_(mix),
      gateway_(gateway), params_(params),
      rng_(params.seed),
      core_(sim(), stream(),
            [this](std::uint32_t slot) { user_submit(slot); }, trace,
            shard_index, shard_count) {
  track(sim().now());
  arm_tracking();
}

// Keyed periodic tracking loop (PeriodicTask would draw plain-event
// sequence numbers, which are not partition-independent).
void SessionShard::arm_tracking() {
  schedule_after(kTrackingPeriod, [this] {
    track(sim().now());
    arm_tracking();
  });
}

void SessionShard::track(SimTime now) {
  for (std::size_t n = core_.retarget(now); n > 0; --n) {
    user_think(core_.add_user());
  }
}

void SessionShard::user_think(std::uint32_t slot) {
  if (core_.maybe_retire(slot)) return;
  const double think = params_.think_time_mean > 0.0
                           ? rng_.exponential(params_.think_time_mean)
                           : 0.0;
  core_.wake_after(slot, think, reserve_seq());
}

void SessionShard::user_submit(std::uint32_t slot) {
  if (core_.maybe_retire(slot)) return;
  RequestContext ctx;
  // Request ids carry the shard in the high bits so they stay globally
  // unique and partition-independent without any cross-shard coordination.
  ctx.id = (static_cast<std::uint64_t>(shard_index_ + 1) << 40) |
           next_request_id_++;
  ctx.request_class = &mix_.pick(rng_);
  ctx.issued_at = sim().now();
  core_.issue(slot, ctx.issued_at);
  post(gateway_.lane(), gateway_.net_delay(),
       [this, ctx, slot] { gateway_.on_request(ctx, *this, slot); });
}

void SessionShard::on_reply(std::uint32_t user_slot, RequestOutcome outcome) {
  core_.reply(user_slot, outcome, sim().now());
  user_think(user_slot);
}

void LaneGateway::on_request(const RequestContext& ctx, SessionShard& from,
                             std::uint32_t user_slot) {
  // The shard stamped issued_at at the client; the system should see the
  // arrival instant (now = client issue + one-way network latency), exactly
  // as a frontend would.
  const SimTime client_issued = ctx.issued_at;
  RequestContext arrival = ctx;
  arrival.issued_at = sim().now();
  submit_(arrival, [this, &from, user_slot,
                    client_issued](RequestOutcome outcome) {
    if (outcome == RequestOutcome::kServed) {
      // Client-perceived response time: the reply still has to cross the
      // network, so the client sees it one net_delay after system done.
      if (completion_hook_) {
        completion_hook_(sim().now() + net_delay_ - client_issued);
      }
    } else if (rejection_hook_) {
      rejection_hook_();
    }
    post(from.lane(), net_delay_,
         [&from, user_slot, outcome] { from.on_reply(user_slot, outcome); });
  });
}

}  // namespace conscale
