// LoadBalancer: the HAProxy stand-in that fronts each scalable tier.
// The paper deploys HAProxy for both the app and DB tiers and uses the
// `leastconn` policy (§IV-A); round-robin and weighted variants are provided
// for the LB-policy ablation.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "tier/server.h"
#include "workload/request.h"

namespace conscale {

enum class LbPolicy { kRoundRobin, kLeastConnections };

std::string to_string(LbPolicy policy);

class LoadBalancer {
 public:
  using Completion = std::function<void()>;

  LoadBalancer(std::string name, LbPolicy policy);

  void add_backend(Server* server);
  /// Stops new dispatches to `server`; in-flight requests complete normally.
  void remove_backend(Server* server);

  /// Dispatches to a backend per policy. Throws std::runtime_error if no
  /// backend was *ever* registered (a mis-wired topology). If backends were
  /// registered but all are currently gone (every VM of the tier crashed),
  /// the request parks in a surge queue — HAProxy's maxconn backlog — and is
  /// dispatched FIFO as soon as a backend comes back.
  void dispatch(const RequestContext& ctx, Completion done);

  void set_policy(LbPolicy policy) { policy_ = policy; }
  LbPolicy policy() const { return policy_; }
  std::size_t backend_count() const { return backends_.size(); }
  std::uint64_t total_dispatched() const { return dispatched_; }
  /// Requests parked because every backend is down.
  std::size_t surge_queued() const { return waiting_.size(); }
  const std::vector<Server*>& backends() const { return backends_; }

 private:
  struct Parked {
    RequestContext ctx;
    Completion done;
  };

  Server* choose_backend();
  void flush_surge_queue();

  std::string name_;
  LbPolicy policy_;
  /// Currently dispatchable, in registration order. Least-connections reads
  /// each server's own in_flight(): a server receives work only from its
  /// tier's LB, so that count is this LB's open connections to it, and the
  /// LB keeps no per-server container (DESIGN.md §8, invariant 3).
  std::vector<Server*> backends_;
  std::deque<Parked> waiting_;
  std::size_t rr_index_ = 0;
  std::uint64_t dispatched_ = 0;
  bool ever_had_backend_ = false;
  bool flushing_ = false;
};

}  // namespace conscale
