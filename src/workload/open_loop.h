// OpenLoopGenerator: a (possibly time-varying) Poisson arrival process.
//
// The closed-loop populations model finite user pools (arrivals slow down
// when the system slows — self-throttling). An open-loop stream keeps
// arriving regardless, which is the right model for traffic fanned in from
// outside (APIs, upstream services) and the classic way to measure a
// latency-vs-offered-load curve. Time-varying rates are drawn by thinning
// (Lewis & Shedler): candidates at the peak rate, accepted with probability
// rate(t)/rate_max.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "simcore/simulation.h"
#include "workload/mix.h"
#include "workload/population.h"
#include "workload/request.h"
#include "workload/trace.h"

namespace conscale {

class OpenLoopGenerator {
 public:
  struct Params {
    std::uint64_t seed = 7;
  };

  /// `rate_trace` is interpreted as offered load in requests/second over
  /// time (reuse WorkloadTrace; "users" axis = req/s here). Arrivals start
  /// immediately and stop at the end of the trace. A shed request counts as
  /// issued and rejected and records no response time, as in the closed
  /// loops.
  OpenLoopGenerator(Simulation& sim, const WorkloadTrace& rate_trace,
                    const RequestMix& mix, SubmitFn submit, Params params);
  ~OpenLoopGenerator();
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  void stop();

  const ClientStats& stats() const { return stats_; }

 private:
  void schedule_next();
  void arrival();

  Simulation& sim_;
  const WorkloadTrace& rate_trace_;
  const RequestMix& mix_;
  SubmitFn submit_;
  Rng rng_;
  double rate_max_;
  bool running_ = true;
  EventHandle next_;
  std::uint64_t next_request_id_ = 1;
  ClientStats stats_;
};

}  // namespace conscale
