#include "cluster/tier_channel.h"

namespace conscale {

TierChannel::TierChannel(lanes::LaneEngine& engine, std::size_t src_lane,
                         std::size_t dst_lane, LoadBalancer& dest,
                         SimDuration delay)
    : dest_(dest),
      delay_(delay),
      forward_(engine, src_lane),
      reply_(engine, dst_lane) {
  engine.declare_channel(src_lane, dst_lane, delay);
  engine.declare_channel(dst_lane, src_lane, delay);
}

void TierChannel::dispatch(const RequestContext& ctx,
                           Server::Completion done) {
  // `ctx` is captured by value (a small id/class/issue-time triple pointing
  // at the run-wide mix).
  forward_.post_to(reply_.lane(), delay_,
                   [this, ctx, done = std::move(done)]() {
                     dest_.dispatch(ctx, [this, done]() {
                       reply_.post_to(forward_.lane(), delay_, done);
                     });
                   });
}

}  // namespace conscale
