// ClientPopulation: the closed-loop workload generator.
//
// The paper's generator simulates a number of concurrent users whose request
// stream follows a Poisson process (§II-A): each simulated user repeatedly
// thinks (exponential think time) and issues one request, waiting for the
// response before thinking again. The population size tracks a WorkloadTrace
// (the six bursty shapes of Fig 9); the profiling experiments of Fig 3/7 use
// a constant population with zero think time to pin the processing
// concurrency exactly. Users draw their request classes i.i.d. from the
// mix; the shared closed-loop mechanics live in workload/population.h.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "simcore/simulation.h"
#include "workload/mix.h"
#include "workload/population.h"
#include "workload/trace.h"

namespace conscale {

class ClientPopulation {
 public:
  struct Params {
    double think_time_mean = 1.5;  ///< seconds; 0 = closed-loop stress mode
    std::uint64_t seed = 7;
  };

  /// A request the system sheds (RequestOutcome::kRejected) counts as
  /// issued and rejected but records no response time, and its user goes
  /// back to thinking (retry-after-backoff behavior).
  ClientPopulation(Simulation& sim, const WorkloadTrace& trace,
                   const RequestMix& mix, SubmitFn submit, Params params);
  ClientPopulation(const ClientPopulation&) = delete;
  ClientPopulation& operator=(const ClientPopulation&) = delete;

  void set_completion_hook(CompletionHook hook) {
    core_.set_completion_hook(std::move(hook));
  }
  void set_rejection_hook(RejectionHook hook) {
    core_.set_rejection_hook(std::move(hook));
  }

  std::size_t active_users() const { return core_.active_users(); }
  /// End-to-end (client-perceived) request counts and response times.
  const ClientStats& stats() const { return core_.stats(); }

 private:
  void track(SimTime now);
  void user_think(std::uint32_t slot);
  void user_submit(std::uint32_t slot);

  Simulation& sim_;
  const RequestMix& mix_;
  SubmitFn submit_;
  Params params_;
  Rng rng_;
  ClosedLoopCore core_;
  std::uint64_t next_request_id_ = 1;
  std::unique_ptr<PeriodicTask> tracking_;
};

}  // namespace conscale
