#include "cluster/lane_gateway.h"

#include <utility>

namespace conscale {

void LaneGateway::on_request(const RequestContext& ctx, SessionShard& from,
                             std::uint32_t user_slot) {
  // The shard stamped issued_at at the client; the system should see the
  // arrival instant (now = client issue + one-way network latency), exactly
  // as a frontend would.
  const SimTime client_issued = ctx.issued_at;
  RequestContext arrival = ctx;
  arrival.issued_at = sim().now();

  const std::size_t reply_lane = from.lane();
  submit_(arrival, [this, &from, reply_lane, user_slot, client_issued,
                    cls = ctx.request_class](RequestOutcome outcome) {
    if (outcome == RequestOutcome::kServed) {
      if (completion_hook_) {
        // Client-perceived response time: the reply still has to cross the
        // network, so the client sees it one net_delay after system done.
        const double rt = sim().now() + params_.net_delay - client_issued;
        completion_hook_(client_issued, rt, *cls);
      }
    } else {
      if (rejection_hook_) rejection_hook_(sim().now());
    }
    post(reply_lane, params_.net_delay,
         [&from, user_slot, outcome] { from.on_reply(user_slot, outcome); });
  });
}

}  // namespace conscale
