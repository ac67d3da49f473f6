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
  // `done` waits here on the source lane and only its slot crosses the hop,
  // so the two [this, slot] closures are stored inline; carrying `done`
  // itself would box a std::function on the reply hop. `ctx` is captured by
  // value (a small id/class/issue-time triple pointing at the run-wide mix).
  auto slot = static_cast<std::uint32_t>(waiting_.size());
  if (free_.empty()) {
    waiting_.push_back(std::move(done));
  } else {
    slot = free_.back();
    free_.pop_back();
    waiting_[slot] = std::move(done);
  }
  forward_.post_to(reply_.lane(), delay_, [this, ctx, slot] {
    dest_.dispatch(ctx, [this, slot] {
      reply_.post_to(forward_.lane(), delay_, [this, slot] {
        // `done` may dispatch across this channel again: take it out and
        // free the slot first.
        const Server::Completion reply = std::move(waiting_[slot]);
        free_.push_back(slot);
        reply();
      });
    });
  });
}

}  // namespace conscale
