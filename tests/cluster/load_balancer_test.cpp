#include "cluster/load_balancer.h"

#include <map>
#include <memory>

#include <gtest/gtest.h>

namespace conscale {
namespace {

struct LbFixture : ::testing::Test {
  LbFixture() {
    cls.name = "c";
    cls.demand_cv = 0.0;
    cls.tiers.resize(1);
    cls.tiers[0].pure_delay = 1.0;
  }

  Server* add_server(const std::string& name) {
    Server::Params p;
    p.name = name;
    p.thread_pool_size = 100;
    servers.push_back(std::make_unique<Server>(sim, p));
    return servers.back().get();
  }

  RequestContext ctx() {
    RequestContext c;
    c.id = next_id++;
    c.request_class = &cls;
    return c;
  }

  Simulation sim;
  RequestClass cls;
  std::vector<std::unique_ptr<Server>> servers;
  std::uint64_t next_id = 1;
};

TEST_F(LbFixture, ThrowsWithoutBackends) {
  LoadBalancer lb("lb", LbPolicy::kRoundRobin);
  EXPECT_THROW(lb.dispatch(ctx(), [] {}), std::runtime_error);
}

TEST_F(LbFixture, RoundRobinCyclesEvenly) {
  LoadBalancer lb("lb", LbPolicy::kRoundRobin);
  Server* a = add_server("a");
  Server* b = add_server("b");
  Server* c = add_server("c");
  lb.add_backend(a);
  lb.add_backend(b);
  lb.add_backend(c);
  for (int i = 0; i < 9; ++i) lb.dispatch(ctx(), [] {});
  EXPECT_EQ(a->in_flight(), 3u);
  EXPECT_EQ(b->in_flight(), 3u);
  EXPECT_EQ(c->in_flight(), 3u);
  EXPECT_EQ(lb.total_dispatched(), 9u);
}

TEST_F(LbFixture, LeastConnectionsPrefersIdle) {
  LoadBalancer lb("lb", LbPolicy::kLeastConnections);
  Server* a = add_server("a");
  Server* b = add_server("b");
  lb.add_backend(a);
  lb.add_backend(b);
  // Four requests: leastconn alternates because in-flight counts grow.
  for (int i = 0; i < 4; ++i) lb.dispatch(ctx(), [] {});
  EXPECT_EQ(a->in_flight(), 2u);
  EXPECT_EQ(b->in_flight(), 2u);
}

TEST_F(LbFixture, LeastConnectionsRebalancesAfterCompletion) {
  LoadBalancer lb("lb", LbPolicy::kLeastConnections);
  Server* a = add_server("a");
  lb.add_backend(a);
  lb.dispatch(ctx(), [] {});
  lb.dispatch(ctx(), [] {});
  Server* b = add_server("b");
  lb.add_backend(b);
  // New server has 0 in flight: next dispatches go there first.
  lb.dispatch(ctx(), [] {});
  lb.dispatch(ctx(), [] {});
  EXPECT_EQ(a->in_flight(), 2u);
  EXPECT_EQ(b->in_flight(), 2u);
}

TEST_F(LbFixture, OutstandingDecrementsOnCompletion) {
  LoadBalancer lb("lb", LbPolicy::kLeastConnections);
  Server* a = add_server("a");
  lb.add_backend(a);
  int done = 0;
  lb.dispatch(ctx(), [&] { ++done; });
  EXPECT_EQ(a->in_flight(), 1u);
  sim.run_all();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(a->in_flight(), 0u);
}

TEST_F(LbFixture, RemovedBackendGetsNoNewWork) {
  LoadBalancer lb("lb", LbPolicy::kRoundRobin);
  Server* a = add_server("a");
  Server* b = add_server("b");
  lb.add_backend(a);
  lb.add_backend(b);
  lb.dispatch(ctx(), [] {});
  lb.remove_backend(a);
  EXPECT_EQ(lb.backend_count(), 1u);
  for (int i = 0; i < 4; ++i) lb.dispatch(ctx(), [] {});
  EXPECT_LE(a->in_flight(), 1u);  // only the pre-removal request
  EXPECT_GE(b->in_flight(), 4u);
}

TEST_F(LbFixture, InFlightCompletionAfterRemovalStillAccounted) {
  LoadBalancer lb("lb", LbPolicy::kLeastConnections);
  Server* a = add_server("a");
  lb.add_backend(a);
  int done = 0;
  lb.dispatch(ctx(), [&] { ++done; });
  lb.remove_backend(a);
  sim.run_all();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(a->in_flight(), 0u);
}

TEST_F(LbFixture, DuplicateAddIsIgnored) {
  LoadBalancer lb("lb", LbPolicy::kRoundRobin);
  Server* a = add_server("a");
  lb.add_backend(a);
  lb.add_backend(a);
  EXPECT_EQ(lb.backend_count(), 1u);
}

TEST_F(LbFixture, PolicySwitchAtRuntime) {
  LoadBalancer lb("lb", LbPolicy::kRoundRobin);
  EXPECT_EQ(lb.policy(), LbPolicy::kRoundRobin);
  lb.set_policy(LbPolicy::kLeastConnections);
  EXPECT_EQ(lb.policy(), LbPolicy::kLeastConnections);
}

TEST_F(LbFixture, ParksRequestsWhileAllBackendsGone) {
  // HAProxy-style surge queue: once a backend has *ever* existed, losing all
  // of them (crash windows) parks new work instead of throwing.
  LoadBalancer lb("lb", LbPolicy::kRoundRobin);
  Server* a = add_server("a");
  lb.add_backend(a);
  lb.remove_backend(a);
  int done = 0;
  lb.dispatch(ctx(), [&] { ++done; });
  lb.dispatch(ctx(), [&] { ++done; });
  EXPECT_EQ(lb.surge_queued(), 2u);
  EXPECT_EQ(lb.total_dispatched(), 0u);
  // A backend coming back (restart) flushes the queue in FIFO order.
  Server* b = add_server("b");
  lb.add_backend(b);
  EXPECT_EQ(lb.surge_queued(), 0u);
  EXPECT_EQ(lb.total_dispatched(), 2u);
  sim.run_all();
  EXPECT_EQ(done, 2);
}

TEST_F(LbFixture, NeverHadBackendStillThrows) {
  LoadBalancer lb("lb", LbPolicy::kRoundRobin);
  EXPECT_THROW(lb.dispatch(ctx(), [] {}), std::runtime_error);
  EXPECT_EQ(lb.surge_queued(), 0u);
}

// Determinism regression: the pick sequence must depend only on the logical
// registration order, never on where the Server objects happen to live in
// memory. The old implementation keyed outstanding-connection counts by
// Server* in an unordered_map — iteration order (and any future tie-break
// someone might write against it) would have followed allocation addresses.
// Two topologies whose servers are *allocated* in shuffled order (with heap
// padding so addresses genuinely differ) but *registered* identically must
// produce byte-identical pick sequences under both policies.
TEST(LbDeterminism, PickSequenceIndependentOfAllocationOrder) {
  struct Topology {
    Simulation sim;
    std::vector<std::unique_ptr<Server>> owners;
    std::vector<Server*> ordered;  // logical registration order a,b,c,d

    explicit Topology(const std::vector<int>& allocation_order) {
      ordered.resize(4, nullptr);
      std::vector<std::unique_ptr<int[]>> padding;
      for (int which : allocation_order) {
        // Perturb heap layout between server allocations.
        padding.push_back(std::make_unique<int[]>(
            64 * static_cast<std::size_t>(which + 1)));
        Server::Params p;
        p.name = std::string(1, static_cast<char>('a' + which));
        p.thread_pool_size = 100;
        owners.push_back(std::make_unique<Server>(sim, p));
        ordered[static_cast<std::size_t>(which)] = owners.back().get();
      }
    }
  };

  RequestClass cls;
  cls.name = "c";
  cls.demand_cv = 0.0;
  cls.tiers.resize(1);
  cls.tiers[0].pure_delay = 1.0;

  for (LbPolicy policy :
       {LbPolicy::kLeastConnections, LbPolicy::kRoundRobin}) {
    auto pick_sequence = [&cls, policy](const std::vector<int>& alloc_order) {
      Topology topo(alloc_order);
      LoadBalancer lb("lb", policy);
      for (Server* s : topo.ordered) lb.add_backend(s);
      std::string picks;
      std::uint64_t id = 1;
      for (int i = 0; i < 32; ++i) {
        RequestContext ctx;
        ctx.id = id++;
        ctx.request_class = &cls;
        // Track which server the dispatch landed on via in_flight deltas.
        std::vector<std::size_t> before;
        before.reserve(topo.ordered.size());
        for (Server* s : topo.ordered) before.push_back(s->in_flight());
        lb.dispatch(ctx, [] {});
        for (std::size_t k = 0; k < topo.ordered.size(); ++k) {
          if (topo.ordered[k]->in_flight() != before[k]) {
            picks += static_cast<char>('a' + static_cast<char>(k));
          }
        }
        // Drain a request midway so leastconn ties re-form.
        if (i == 15) topo.sim.run_all();
      }
      topo.sim.run_all();
      return picks;
    };

    const std::string forward = pick_sequence({0, 1, 2, 3});
    const std::string shuffled = pick_sequence({3, 1, 0, 2});
    const std::string reversed = pick_sequence({2, 3, 1, 0});
    EXPECT_EQ(forward, shuffled) << to_string(policy);
    EXPECT_EQ(forward, reversed) << to_string(policy);
    EXPECT_EQ(forward.size(), 32u) << to_string(policy);
  }
}

TEST(LbPolicyNames, ToString) {
  EXPECT_EQ(to_string(LbPolicy::kRoundRobin), "roundrobin");
  EXPECT_EQ(to_string(LbPolicy::kLeastConnections), "leastconn");
}

}  // namespace
}  // namespace conscale
