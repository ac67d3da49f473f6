// Allocation budget of the request path. A counting global operator new —
// defined in this file, which is its own test binary, so no other suite
// runs under it — counts the heap allocations of whole runs: set-up, the
// simulated run and the result. Per completed request that is ~1 on the
// chain and the fan-out DAG: a tier visit, a PS job, a load-balancer pick
// and a fan-out join allocate nothing once their slabs are warm, and the
// client's completion closure captures only [this, slot], which
// std::function stores inline. What remains is the graph entry's completion
// closure plus amortized growth. A client closure that allocates again
// costs one more per request, and one allocation per tier visit at least 3
// on the three-tier chain, so the budget of 2 catches either.
//
// The same operator new keeps the live heap bytes (malloc_usable_size, so
// vector capacity and allocator rounding count), which bounds what an idle
// closed-loop user costs: a 16-byte slot and a 24-byte wake-up entry in
// vectors that grow by doubling, about 53 bytes at 100 k users. A user
// with its own kernel event again (52 bytes more) breaks the budget of 64.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include "experiments/graph_runner.h"
#include "experiments/graph_scenario.h"
#include "experiments/runner.h"
#include "simcore/lanes/lane_engine.h"
#include "workload/client.h"
#include "workload/session_shard.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* counted(void* block) noexcept {
  if (block != nullptr) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(block)),
                           std::memory_order_relaxed);
  }
  return block;
}

void* counted_malloc(std::size_t size) noexcept {
  return counted(std::malloc(size == 0 ? 1 : size));
}

void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size == 0 ? 1 : size + alignment - 1) / alignment * alignment;
  return counted(std::aligned_alloc(alignment, rounded));
}

void counted_free(void* block) noexcept {
  if (block != nullptr) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(block)),
                           std::memory_order_relaxed);
  }
  std::free(block);
}

void* checked(void* block) {
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

}  // namespace

void* operator new(std::size_t size) { return checked(counted_malloc(size)); }
void* operator new[](std::size_t size) {
  return checked(counted_malloc(size));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return checked(counted_aligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked(counted_aligned(size, align));
}
void operator delete(void* block) noexcept { counted_free(block); }
void operator delete[](void* block) noexcept { counted_free(block); }
void operator delete(void* block, std::size_t) noexcept {
  counted_free(block);
}
void operator delete[](void* block, std::size_t) noexcept {
  counted_free(block);
}
void operator delete(void* block, std::align_val_t) noexcept {
  counted_free(block);
}
void operator delete[](void* block, std::align_val_t) noexcept {
  counted_free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  counted_free(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  counted_free(block);
}

namespace conscale {
namespace {

constexpr double kBudgetPerRequest = 2.0;
constexpr SimDuration kDuration = 120.0;

/// The benchmark's grid scale: demands ×16, users ÷16.
ScenarioParams grid_params() {
  ScenarioParams params = ScenarioParams::paper_default();
  params.work_scale = 16.0;
  return params;
}

/// Heap allocations per completed request over one call of `run`, which
/// returns the run's completed-request count.
template <class Run>
double allocations_per_request(const std::string& cell, Run run) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t completed = run();
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GT(completed, 1000u) << cell;
  const double per_request =
      static_cast<double>(allocations) /
      static_cast<double>(completed == 0 ? 1 : completed);
  std::printf("%-32s %10llu allocations %8llu requests %6.2f per request\n",
              cell.c_str(), static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(completed), per_request);
  return per_request;
}

TEST(AllocBudget, ChainCellsStayUnderBudget) {
  const ScenarioParams params = grid_params();
  ScalingRunOptions options;
  options.duration = kDuration;
  for (const TraceKind kind :
       {TraceKind::kLargeVariations, TraceKind::kBigSpike}) {
    for (const std::string framework : {"conscale", "ec2"}) {
      const std::string cell = framework + "/" + to_string(kind);
      const double per_request = allocations_per_request(cell, [&] {
        return run_scaling(params, kind, framework, options)
            .requests_completed;
      });
      EXPECT_LE(per_request, kBudgetPerRequest) << cell;
    }
  }
}

TEST(AllocBudget, FanoutDagCellStaysUnderBudget) {
  const GraphScenario scenario = make_fanout_scenario(grid_params());
  ScalingRunOptions options;
  options.duration = kDuration;
  const std::string cell = "fanout3/conscale/large_variations";
  const double per_request = allocations_per_request(cell, [&] {
    return run_graph_scaling(scenario, TraceKind::kLargeVariations,
                             "conscale", options)
        .run.requests_completed;
  });
  EXPECT_LE(per_request, kBudgetPerRequest) << cell;
}

constexpr std::size_t kIdleUsers = 100000;
constexpr double kBytesPerIdleUser = 64.0;

/// Live heap bytes per user left behind by `build`, which constructs a
/// population of kIdleUsers users who all wait on a wake-up and reports
/// the bytes while it is alive.
template <class Build>
double bytes_per_idle_user(const std::string& cell, Build build) {
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  std::int64_t bytes = 0;
  build([&] {
    bytes = g_live_bytes.load(std::memory_order_relaxed) - before;
  });
  const double per_user =
      static_cast<double>(bytes) / static_cast<double>(kIdleUsers);
  std::printf("%-32s %10lld live bytes %8zu users %6.1f per user\n",
              cell.c_str(), static_cast<long long>(bytes), kIdleUsers,
              per_user);
  return per_user;
}

RequestMix one_class_mix() {
  RequestClass only;
  only.name = "only";
  only.weight = 1.0;
  only.tiers.resize(1);
  return RequestMix({only});
}

TEST(AllocBudget, IdleUsersStayUnderByteBudget) {
  const WorkloadTrace trace =
      make_constant_trace(static_cast<double>(kIdleUsers), 600.0);
  const RequestMix mix = one_class_mix();
  const SubmitFn never = [](const RequestContext&,
                            std::function<void(RequestOutcome)>) {};
  // A 300 s mean think time: nothing runs, every user waits to wake.
  const double client_bytes =
      bytes_per_idle_user("idle ClientPopulation", [&](auto measure) {
        Simulation sim;
        ClientPopulation::Params params;
        params.think_time_mean = 300.0;
        ClientPopulation clients(sim, trace, mix, never, params);
        ASSERT_EQ(clients.active_users(), kIdleUsers);
        measure();
      });
  EXPECT_LE(client_bytes, kBytesPerIdleUser);

  const double shard_bytes =
      bytes_per_idle_user("idle SessionShard", [&](auto measure) {
        lanes::LaneEngine::Options options;
        options.lanes = 2;
        lanes::LaneEngine engine(options);
        engine.declare_channel(0, 1, 0.05);
        engine.declare_channel(1, 0, 0.05);
        LaneGateway gateway(engine, 0, never, 0.05);
        SessionShard::Params params;
        params.think_time_mean = 300.0;
        SessionShard shard(engine, 1, 0, 1, trace, mix, gateway, params);
        ASSERT_EQ(shard.active_users(), kIdleUsers);
        measure();
      });
  EXPECT_LE(shard_bytes, kBytesPerIdleUser);
}

}  // namespace
}  // namespace conscale
