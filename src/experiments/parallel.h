// Parallel experiment fan-out: run independent simulation runs on a bounded
// thread pool.
//
// The paper's evaluation (§V) is a grid of independent runs — framework ×
// trace × seed × option set — and each run is a fully self-contained unit
// (its Simulation owns the event arena, its results are plain data in the
// returned ScalingRunResult, and there is no mutable global state on the run
// path), so runs are thread-safe by isolation. RunSet exploits exactly that:
// N worker threads pull specs off a shared counter, and results land in
// spec order regardless of completion order. Results are bit-for-bit
// identical to the serial path — each run computes from its own seeds on
// its own thread; the fan-out only changes wall-clock interleaving — and
// `deterministic = true` re-runs every spec serially and asserts that.
//
// For fan-out that does not fit the RunSpec shape (scatter collections,
// ad-hoc sweeps), `parallel_map` runs an arbitrary index → value function
// with the same pool, ordering, and error semantics.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "experiments/runner.h"

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

/// One cell of the evaluation grid: everything run_scaling needs.
struct RunSpec {
  ScenarioParams params;
  TraceKind trace = TraceKind::kLargeVariations;
  /// Controller-registry reference ("ec2", "conscale", "pi(kp=20)", ...).
  std::string framework = "conscale";
  ScalingRunOptions options;
};

struct RunSetOptions {
  /// Worker threads; 0 = one per hardware thread, 1 = serial (no threads
  /// spawned).
  std::size_t jobs = 0;
  /// Assertion mode: after the parallel pass, re-run every spec serially
  /// and require bit-identical results (timelines, events, percentiles).
  /// Doubles the cost; meant for tests and CI smoke runs.
  bool deterministic = false;
};

class RunSet {
 public:
  RunSet() = default;
  explicit RunSet(RunSetOptions options) : options_(options) {}

  /// Executes every spec and returns results in spec order. Rethrows the
  /// first (by spec index) exception after all workers finish. With
  /// options().deterministic set, throws std::logic_error if any parallel
  /// result differs from its serial re-run.
  std::vector<ScalingRunResult> run(const std::vector<RunSpec>& specs) const;

  /// Executes a single spec on the calling thread (the unit the pool runs).
  static ScalingRunResult run_one(const RunSpec& spec);

  const RunSetOptions& options() const { return options_; }

 private:
  RunSetOptions options_;
};

/// True when two results are observably identical: names, every timeline
/// sample, scaling events, SCT history, and the client-side distribution
/// stats — i.e. everything the reports and JSON/CSV exporters read. On
/// mismatch, `diff` (when non-null) receives a one-line description of the
/// first difference.
bool results_equivalent(const ScalingRunResult& a, const ScalingRunResult& b,
                        std::string* diff = nullptr);

}  // namespace conscale
