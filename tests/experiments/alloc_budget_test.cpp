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
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "experiments/graph_runner.h"
#include "experiments/graph_scenario.h"
#include "experiments/runner.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size == 0 ? 1 : size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
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
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
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

}  // namespace
}  // namespace conscale
