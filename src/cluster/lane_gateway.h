// LaneGateway: the system-lane endpoint of the shard protocol
// (DESIGN.md §6.6). It terminates the client<->frontend network channel:
// requests posted by SessionShards arrive here after the one-way network
// latency, get re-stamped to their arrival instant, and enter the serving
// system through a generic outcome-aware submit function (the
// topology::ServiceGraph's submit in every runner). When the
// system finishes a request, the gateway fires the metrics hooks at the
// client-perceived completion instant and posts the reply back across the
// same channel to the owning shard.
//
// The hooks are plain std::functions rather than a MonitoringAgent* so the
// cluster layer does not grow a dependency on metrics (metrics already
// links cluster); the laned runners wire them to the monitor exactly like
// ClientPopulation's hooks.
//
// Determinism: the gateway is a LaneActor on the system lane, so its reply
// posts carry canonical (stream, seq) keys drawn in lane-0 execution order
// — which the ordering contract (DESIGN.md §8) already makes identical for
// lanes=1 and lanes=K.
#pragma once

#include <cstdint>
#include <functional>

#include "common/time_units.h"
#include "simcore/lanes/actor.h"
#include "workload/client.h"
#include "workload/request.h"
#include "workload/session_shard.h"

namespace conscale {

class LaneGateway final : public ShardGateway, public lanes::LaneActor {
 public:
  /// ClientPopulation's submit shape and observers: completions report
  /// (client issue time, client-perceived response time, request class),
  /// rejections fire at the rejection instant.
  using SubmitFn = ClientPopulation::SubmitFn;
  using CompletionHook = ClientPopulation::CompletionHook;
  using RejectionHook = ClientPopulation::RejectionHook;

  struct Params {
    /// Client<->frontend one-way network latency; must match the shards'
    /// and be at least the declared gateway -> shard channel delay (the
    /// engine checks every post).
    SimDuration net_delay = 0.05;
  };

  LaneGateway(lanes::LaneEngine& engine, std::size_t lane, SubmitFn submit,
              Params params)
      : LaneActor(engine, lane), submit_(std::move(submit)), params_(params) {}

  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }
  void set_rejection_hook(RejectionHook hook) {
    rejection_hook_ = std::move(hook);
  }

  void on_request(const RequestContext& ctx, SessionShard& from,
                  std::uint32_t user_slot) override;

 private:
  SubmitFn submit_;
  Params params_;
  CompletionHook completion_hook_;
  RejectionHook rejection_hook_;
};

}  // namespace conscale
