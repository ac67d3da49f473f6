// Parallel experiment fan-out: run independent simulation runs on a bounded
// thread pool.
//
// The paper's evaluation (§V) is a grid of independent runs — framework ×
// trace × seed × option set — and each run is a fully self-contained unit
// (its Simulation owns the event arena, its results are plain data in the
// returned ScalingRunResult, and there is no mutable global state on the run
// path), so runs are thread-safe by isolation. `parallel_map` exploits
// exactly that: N worker threads pull indices off a shared counter, and
// results land in index order regardless of completion order. A grid bench
// maps its cells onto run_scaling; the results are bit-for-bit identical to
// the serial path — each run computes from its own seeds on its own thread,
// the fan-out only changes wall-clock interleaving — which the determinism
// tests check with results_equivalent against a serial re-run.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace conscale {

/// Worker threads used when jobs == 0 ("auto"): the hardware concurrency,
/// at least 1.
std::size_t default_parallel_jobs();

namespace detail {
/// Runs body(i) for every i in [0, n) on up to `jobs` threads (jobs == 0 =
/// auto; jobs == 1 or n <= 1 runs inline with no threads). If any body
/// throws, every remaining index still executes, then the exception of the
/// lowest failing index is rethrown on the caller's thread.
void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& body);
}  // namespace detail

/// Maps fn over [0, n) with up to `jobs` worker threads and returns results
/// in index order. T must be default-constructible and movable.
template <typename T>
std::vector<T> parallel_map(std::size_t n, std::size_t jobs,
                            const std::function<T(std::size_t)>& fn) {
  std::vector<T> results(n);
  detail::parallel_for(n, jobs, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace conscale
