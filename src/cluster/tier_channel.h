// TierChannel: one directed node->node RPC edge between two cells of a
// tier-laned run, with an explicit LAN hop each way (DESIGN.md §6.6.1). The
// paper's testbed is a real n-tier deployment where every inter-tier call
// crosses the datacenter network; modeling that delay explicitly is what
// opens a lookahead window on the edge, letting the lane engine run the
// serving system itself across cells.
//
// Both legs (request forward, reply return) travel the lane engine as keyed
// messages via per-endpoint LaneActors, so delivery order is canonical and
// independent of the thread count. A serial graph has no channels: it
// dispatches straight into the child's load balancer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cluster/load_balancer.h"
#include "simcore/lanes/actor.h"
#include "tier/server.h"
#include "workload/request.h"

namespace conscale {

class Vm;

class TierChannel {
 public:
  /// Declares the src->dst and dst->src engine channels at `delay`; throws
  /// what LaneEngine::declare_channel throws when the endpoints share a lane
  /// or `delay` <= 0.
  TierChannel(lanes::LaneEngine& engine, std::size_t src_lane,
              std::size_t dst_lane, LoadBalancer& dest, SimDuration delay);

  TierChannel(const TierChannel&) = delete;
  TierChannel& operator=(const TierChannel&) = delete;

  /// Forwards one request across the hop; `done` runs back on the caller's
  /// side after the reply hop.
  void dispatch(const RequestContext& ctx, Server::Completion done);

 private:
  /// LaneActor with the posting surface opened up for the channel.
  class Endpoint final : public lanes::LaneActor {
   public:
    using LaneActor::LaneActor;
    void post_to(std::size_t dest_lane, SimDuration delay,
                 EventCallback callback) {
      post(dest_lane, delay, std::move(callback));
    }
  };

  LoadBalancer& dest_;
  SimDuration delay_;
  Endpoint forward_;  ///< on the source lane
  Endpoint reply_;    ///< on the destination lane
  /// Completions of requests out across the hop, by slot, with the free
  /// slots; touched only on the source lane.
  std::vector<Server::Completion> waiting_;
  std::vector<std::uint32_t> free_;
};

/// Forwards a tier cell's vm-ready signal across the LAN hop to the control
/// lane, where the registered VmReadyCallbacks (monitor attach, decision
/// hooks) run exactly as in a serial run, one hop after the VM joins its
/// load balancer. A scale-out VM's departures inside that hop are not in
/// the monitor's samples or node-latency row; the monitor wires the
/// bootstrap VMs at construction (DESIGN.md §6e). Declares the
/// lane->control engine channel. The Vm pointer stays valid: TierGroup
/// owns its VMs for the whole run.
class VmReadyNotifier final : public lanes::LaneActor {
 public:
  using Deliver = std::function<void(Vm&)>;

  VmReadyNotifier(lanes::LaneEngine& engine, std::size_t lane,
                  std::size_t control_lane, SimDuration delay,
                  Deliver deliver)
      : LaneActor(engine, lane),
        control_lane_(control_lane),
        delay_(delay),
        deliver_(std::move(deliver)) {
    engine.declare_channel(lane, control_lane, delay);
  }

  void notify(Vm& vm) {
    post(control_lane_, delay_, [this, vm = &vm] { deliver_(*vm); });
  }

 private:
  std::size_t control_lane_;
  SimDuration delay_;
  Deliver deliver_;
};

}  // namespace conscale
