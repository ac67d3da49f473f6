// Fine-grained interval metrics (§III-B): per 50 ms window we record a
// server's throughput (completions in the window), mean response time of
// those completions, and concurrency (time-average number of requests being
// processed). These {Q, TP, RT} tuples are the raw material of the SCT model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/histogram.h"
#include "common/stats.h"
#include "simcore/simulation.h"
#include "tier/server.h"

namespace conscale {

struct IntervalSample {
  SimTime t_end = 0.0;       ///< end of the measurement interval
  double concurrency = 0.0;  ///< time-averaged #requests in processing
  double throughput = 0.0;   ///< completions per second over the interval
  double mean_rt = 0.0;      ///< mean response time of completions [s]
  std::uint64_t completions = 0;
};

/// Builds IntervalSamples from a server's admission/departure hooks.
/// Attach once; read via the callback given to start(). Every departure's
/// response time also goes into a whole-run histogram (response_times()).
class IntervalAggregator {
 public:
  using SampleCallback = std::function<void(const IntervalSample&)>;

  /// Attaches to `server` immediately; emits a sample every `period` once
  /// start() is called.
  IntervalAggregator(Simulation& sim, Server& server, SimDuration period);

  void start(SampleCallback on_sample);
  void stop();

  SimDuration period() const { return period_; }

  /// Hook entry points (wired to the server's admission/departure/abort
  /// hooks by the constructor; public so adapters and tests can drive the
  /// aggregator without a Server).
  void note_admitted(SimTime now);
  void note_departed(SimTime now, double rt);
  void note_aborted(SimTime now);

  /// Departure/abort hooks that arrived with no matching admission. A
  /// correct hook wiring never produces these; silently clamping them (the
  /// old behavior) would skew the concurrency integral, so they are counted
  /// and must be asserted zero by the harness (see MonitoringAgent).
  std::uint64_t hook_underflows() const { return hook_underflows_; }

  /// Response times of every departure since attachment [s].
  const LogHistogram& response_times() const { return response_times_; }

 private:
  void advance_integral(SimTime now);
  void emit(SimTime now);

  Simulation& sim_;
  SimDuration period_;
  SampleCallback on_sample_;
  std::unique_ptr<PeriodicTask> tick_;

  // Concurrency integration state.
  std::size_t current_ = 0;
  SimTime last_change_ = 0.0;
  double integral_ = 0.0;
  SimTime window_start_ = 0.0;
  std::uint64_t hook_underflows_ = 0;

  // Completion accumulation for the current window.
  std::uint64_t completions_ = 0;
  double rt_sum_ = 0.0;

  LogHistogram response_times_;
};

}  // namespace conscale
