#include "topology/service_graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

namespace conscale::topology {

double CacheModel::hit_ratio_at(SimTime t) const {
  double ws = working_set;
  if (churn_period > 0.0 && churn_amplitude != 0.0) {
    const double cycles = t / churn_period;
    const double phase = cycles - std::floor(cycles);
    // Triangle wave: -1 at the period edges, +1 mid-period. The working set
    // starts small (hit ratio at its best), swells to its peak halfway
    // through each churn cycle, and recedes again.
    const double tri = 1.0 - 4.0 * std::abs(phase - 0.5);
    ws = working_set * (1.0 + churn_amplitude * tri);
  }
  const double coverage = ws > 0.0 ? std::min(1.0, capacity / ws) : 1.0;
  return std::clamp(base_hit_ratio * coverage, 0.0, 1.0);
}

void ServiceGraph::validate(const ServiceGraphConfig& config) const {
  if (config.nodes.empty()) {
    throw std::invalid_argument("ServiceGraph: no nodes configured");
  }
  const std::size_t n = config.nodes.size();
  std::set<std::string> names;
  for (std::size_t i = 0; i < n; ++i) {
    const GraphNodeConfig& node = config.nodes[i];
    if (!names.insert(node.tier.name).second) {
      throw std::invalid_argument("ServiceGraph: duplicate node name '" +
                                  node.tier.name + "'");
    }
    for (const RouteStage& stage : node.route) {
      for (const GraphCall& call : stage.calls) {
        if (call.node >= n) {
          throw std::invalid_argument(
              "ServiceGraph: node '" + node.tier.name +
              "' routes to out-of-range node index " +
              std::to_string(call.node));
        }
        if (call.node == i) {
          throw std::invalid_argument("ServiceGraph: node '" +
                                      node.tier.name + "' calls itself");
        }
      }
    }
  }
  // Cycle check (iterative three-color DFS) + reachability from the entry.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  struct Frame {
    std::size_t node;
    std::size_t stage = 0;
    std::size_t call = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({0});
  color[0] = Color::kGray;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const GraphNodeConfig& node = config.nodes[frame.node];
    // Advance to the next unvisited edge of this node.
    while (frame.stage < node.route.size() &&
           frame.call >= node.route[frame.stage].calls.size()) {
      ++frame.stage;
      frame.call = 0;
    }
    if (frame.stage >= node.route.size()) {
      color[frame.node] = Color::kBlack;
      stack.pop_back();
      continue;
    }
    const std::size_t child = node.route[frame.stage].calls[frame.call].node;
    ++frame.call;
    if (color[child] == Color::kGray) {
      throw std::invalid_argument(
          "ServiceGraph: cycle through node '" +
          config.nodes[child].tier.name + "'");
    }
    if (color[child] == Color::kWhite) {
      color[child] = Color::kGray;
      stack.push_back({child});
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (color[i] == Color::kWhite) {
      throw std::invalid_argument("ServiceGraph: node '" +
                                  config.nodes[i].tier.name +
                                  "' is unreachable from the entry");
    }
  }
}

namespace {

constexpr std::size_t kNoChannel = static_cast<std::size_t>(-1);

/// The first stage at or after `stage` that makes calls; route.size() if
/// none is left.
std::size_t next_stage(const std::vector<RouteStage>& route,
                       std::size_t stage) {
  while (stage < route.size() && route[stage].calls.empty()) ++stage;
  return stage;
}

/// Checks the engine and the hop before any lane is touched, and returns
/// the entry node's sim (the admission clock).
Simulation& entry_sim(lanes::LaneEngine& engine,
                      const ServiceGraphConfig& config,
                      SimDuration lan_delay) {
  if (config.nodes.empty()) {
    throw std::invalid_argument("ServiceGraph: no nodes configured");
  }
  // The control lane plus one lane per node: node_lane(n) is the lane count.
  const std::size_t needed = node_lane(config.nodes.size());
  if (engine.lane_count() < needed) {
    throw std::invalid_argument(
        "ServiceGraph: a laned graph needs " + std::to_string(needed) +
        " lanes, the engine has " + std::to_string(engine.lane_count()));
  }
  if (!(lan_delay > 0.0)) {
    throw std::invalid_argument(
        "ServiceGraph: a laned graph needs lan_delay > 0 (the node->node "
        "and vm-ready hops have no lookahead otherwise)");
  }
  return engine.lane(node_lane(0)).sim();
}

}  // namespace

ServiceGraph::ServiceGraph(Simulation& sim, ServiceGraphConfig config)
    : sim_(sim), config_(std::move(config)) {
  build(nullptr, 0.0);
}

ServiceGraph::ServiceGraph(lanes::LaneEngine& engine,
                           ServiceGraphConfig config, SimDuration lan_delay)
    : sim_(entry_sim(engine, config, lan_delay)), config_(std::move(config)) {
  build(&engine, lan_delay);
}

void ServiceGraph::build(lanes::LaneEngine* engine, SimDuration lan_delay) {
  validate(config_);
  const std::size_t n = config_.nodes.size();
  cache_stats_.resize(n);
  route_slabs_.resize(n);
  cache_rngs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Fixed per-node stream derivation so cache draws replay byte-identically
    // and are independent of every other RNG consumer in the run.
    cache_rngs_.emplace_back(config_.seed ^
                             (0x9e3779b97f4a7c15ULL * (i + 1)));
    TierConfig tc = config_.nodes[i].tier;
    tc.tier_index = static_cast<int>(i);
    Simulation& node_sim = engine ? engine->lane(node_lane(i)).sim() : sim_;
    node_sims_.push_back(&node_sim);
    tiers_.push_back(std::make_unique<TierGroup>(node_sim, tc));
  }
  // Laned: one TierChannel per distinct route edge, built in route order so
  // actor stream allocation is fixed by the config. A serial graph builds
  // none and dispatches straight into the child's load balancer.
  if (engine) {
    edge_channel_.assign(n * n, kNoChannel);
    for (std::size_t i = 0; i < n; ++i) {
      for (const RouteStage& stage : config_.nodes[i].route) {
        for (const GraphCall& call : stage.calls) {
          std::size_t& slot = edge_channel_[i * n + call.node];
          if (slot != kNoChannel) continue;
          slot = channels_.size();
          channels_.push_back(std::make_unique<TierChannel>(
              *engine, node_lane(i), node_lane(call.node),
              tiers_[call.node]->lb(), lan_delay));
        }
      }
    }
  }
  // Wire each routing node's servers to the graph router. Leaf nodes with no
  // cache keep a null downstream, exactly like the chain's last tier.
  for (std::size_t i = 0; i < n; ++i) {
    const GraphNodeConfig& node = config_.nodes[i];
    if (node.route.empty() && !node.cache.enabled) continue;
    tiers_[i]->set_downstream_factory([this, i]() {
      return [this, i](const RequestContext& ctx, Server::Completion done) {
        const CacheModel& cache = config_.nodes[i].cache;
        if (cache.enabled) {
          // The draw clock is the node's own sim — identical to the run
          // clock when serial, the hosting lane's clock when partitioned.
          const double h = cache.hit_ratio_at(node_sims_[i]->now());
          if (cache_rngs_[i].bernoulli(h)) {
            ++cache_stats_[i].hits;
            done();  // hit: the whole subtree is short-circuited
            return;
          }
          ++cache_stats_[i].misses;
        }
        run_route(i, ctx, 0, std::move(done));
      };
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto deliver = [this, i](Vm& vm) {
      for (auto& callback : on_vm_ready_) callback(i, vm);
    };
    if (engine) {
      notifiers_.push_back(std::make_unique<VmReadyNotifier>(
          *engine, node_lane(i), kControlLane, lan_delay, std::move(deliver)));
      VmReadyNotifier* notifier = notifiers_.back().get();
      tiers_[i]->set_vm_ready_callback(
          [notifier](Vm& vm) { notifier->notify(vm); });
    } else {
      tiers_[i]->set_vm_ready_callback(std::move(deliver));
    }
  }
  // Bootstrap after wiring so even time-zero VMs get their downstream set.
  for (std::size_t i = 0; i < n; ++i) {
    tiers_[i]->bootstrap(config_.nodes[i].initial_vms);
  }
}

void ServiceGraph::dispatch_call(std::size_t from, std::size_t to,
                                 const RequestContext& ctx,
                                 Server::Completion done) {
  if (edge_channel_.empty()) {
    tiers_[to]->lb().dispatch(ctx, std::move(done));
    return;
  }
  const std::size_t slot = edge_channel_[from * config_.nodes.size() + to];
  channels_[slot]->dispatch(ctx, std::move(done));
}

void ServiceGraph::run_route(std::size_t node_index, const RequestContext& ctx,
                             std::size_t stage_index,
                             Server::Completion done) {
  const auto& route = config_.nodes[node_index].route;
  stage_index = next_stage(route, stage_index);
  if (stage_index >= route.size()) {
    done();
    return;
  }
  const RouteStage& stage = route[stage_index];
  if (stage.calls.size() == 1 &&
      next_stage(route, stage_index + 1) == route.size()) {
    // The route's last call — a chain's only one — replies straight to
    // `done`: no route state.
    dispatch_call(node_index, stage.calls[0].node, ctx, std::move(done));
    return;
  }
  // A fan-out, or a call with stages after it: the route waits in a slot of
  // the node's slab until every reply of the stage is in (join-on-all).
  RouteSlab& slab = route_slabs_[node_index];
  std::uint32_t slot = slab.free_head;
  if (slot != kNoSlot) {
    slab.free_head = slab.states[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slab.states.size());
    slab.states.emplace_back();
  }
  RouteState& state = slab.states[slot];
  state.ctx = ctx;
  state.done = std::move(done);
  state.stage = stage_index;
  state.remaining = stage.calls.size();
  // No reference into the slab survives this point: a reply may arrive
  // synchronously (a cache hit), finish the route and reuse the slot.
  const RouteRef ref{static_cast<std::uint32_t>(node_index), slot};
  for (const GraphCall& call : stage.calls) {
    dispatch_call(node_index, call.node, ctx, [this, ref] { join(ref); });
  }
}

void ServiceGraph::join(RouteRef ref) {
  RouteSlab& slab = route_slabs_[ref.node];
  RouteState& state = slab.states[ref.slot];
  assert(state.remaining > 0);
  if (--state.remaining > 0) return;
  const RequestContext ctx = state.ctx;
  const std::size_t next = state.stage + 1;
  Server::Completion done = std::move(state.done);
  state.next_free = slab.free_head;
  slab.free_head = ref.slot;
  run_route(ref.node, ctx, next, std::move(done));
}

bool ServiceGraph::admit() {
  const AdmissionPolicy& policy = config_.admission;
  if (policy.queue_limit > 0) {
    LoadBalancer& lb = tiers_.front()->lb();
    std::size_t depth = lb.surge_queued();
    for (Server* server : lb.backends()) depth += server->queued();
    if (depth >= policy.queue_limit) {
      ++admission_stats_.rejected_occupancy;
      return false;
    }
  }
  if (policy.max_queue_age > 0.0) {
    prune_inflight();
    if (!inflight_.empty() &&
        sim_.now() - inflight_.front().admitted_at > policy.max_queue_age) {
      ++admission_stats_.rejected_age;
      return false;
    }
  }
  return true;
}

void ServiceGraph::prune_inflight() {
  while (!inflight_.empty() &&
         completed_ids_.erase(inflight_.front().id) > 0) {
    inflight_.pop_front();
  }
}

void ServiceGraph::submit(const RequestContext& ctx,
                          std::function<void(RequestOutcome)> done) {
  if (config_.admission.enabled && !admit()) {
    done(RequestOutcome::kRejected);
    return;
  }
  ++admission_stats_.admitted;
  const bool track =
      config_.admission.enabled && config_.admission.max_queue_age > 0.0;
  if (track) inflight_.push_back({ctx.id, sim_.now()});
  tiers_.front()->lb().dispatch(
      ctx, [this, track, id = ctx.id, done = std::move(done)] {
        if (track) {
          completed_ids_.insert(id);
          prune_inflight();
        }
        done(RequestOutcome::kServed);
      });
}

void ServiceGraph::add_vm_ready_callback(VmReadyCallback callback) {
  on_vm_ready_.push_back(std::move(callback));
}

TierGroup& ServiceGraph::tier_by_name(const std::string& name) {
  const std::size_t index = tier_index_by_name(name);
  if (index == tier_count()) {
    throw std::out_of_range("ServiceGraph: no tier named " + name);
  }
  return tier(index);
}

std::size_t ServiceGraph::tier_index_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < tier_count(); ++i) {
    if (tier(i).name() == name) return i;
  }
  return tier_count();
}

std::size_t ServiceGraph::total_billed_vms() const {
  std::size_t total = 0;
  for (const auto& group : tiers_) total += group->billed_vms();
  return total;
}

std::uint64_t ServiceGraph::total_aborted_requests() const {
  std::uint64_t total = 0;
  for (const auto& group : tiers_) total += group->total_aborted_requests();
  return total;
}

}  // namespace conscale::topology
