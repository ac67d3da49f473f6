// ClientPopulation: the closed-loop workload generator.
//
// The paper's generator simulates a number of concurrent users whose request
// stream follows a Poisson process (§II-A): each simulated user repeatedly
// thinks (exponential think time) and issues one request, waiting for the
// response before thinking again. The population size tracks a WorkloadTrace
// (the six bursty shapes of Fig 9); the profiling experiments of Fig 3/7 use
// a constant population with zero think time to pin the processing
// concurrency exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/histogram.h"
#include "common/rng.h"
#include "simcore/simulation.h"
#include "workload/mix.h"
#include "workload/request.h"
#include "workload/trace.h"

namespace conscale {

class ClientPopulation {
 public:
  /// The system entry point (topology::ServiceGraph::submit's shape):
  /// deliver `ctx` and invoke the continuation when the response returns,
  /// reporting whether the request was served or shed by admission control.
  using SubmitFn =
      std::function<void(const RequestContext&,
                         std::function<void(RequestOutcome)> on_response)>;
  /// Observer of completed end-to-end requests (issued time, response time).
  using CompletionHook =
      std::function<void(SimTime issued, double rt, const RequestClass&)>;
  /// Observer of shed requests (fires at the rejection instant).
  using RejectionHook = std::function<void(SimTime rejected_at)>;

  struct Params {
    double think_time_mean = 1.5;  ///< seconds; 0 = closed-loop stress mode
    SimDuration adjust_period = 0.5;  ///< how often population tracks trace
    std::uint64_t seed = 7;
  };

  /// A request the system sheds (RequestOutcome::kRejected) counts toward
  /// requests_issued()/requests_rejected() but not the RT histogram, and its
  /// user goes back to thinking (retry-after-backoff behavior).
  ClientPopulation(Simulation& sim, const WorkloadTrace& trace,
                   const RequestMix& mix, SubmitFn submit, Params params);
  ~ClientPopulation();
  ClientPopulation(const ClientPopulation&) = delete;
  ClientPopulation& operator=(const ClientPopulation&) = delete;

  void set_completion_hook(CompletionHook hook) { hook_ = std::move(hook); }
  void set_rejection_hook(RejectionHook hook) {
    rejection_hook_ = std::move(hook);
  }

  std::size_t active_users() const { return users_.size(); }
  std::uint64_t requests_issued() const { return issued_; }
  std::uint64_t requests_completed() const { return completed_; }
  /// Requests shed by admission control.
  std::uint64_t requests_rejected() const { return rejected_; }
  /// End-to-end (client-perceived) response times of the whole run.
  const LogHistogram& response_times() const { return rt_histogram_; }

 private:
  struct User {
    bool in_flight = false;
    bool retired = false;
    EventHandle think_event;
  };

  void adjust_population(SimTime now);
  void spawn_user();
  void user_think(std::uint64_t id);
  void user_submit(std::uint64_t id);
  bool maybe_retire(std::uint64_t id);

  Simulation& sim_;
  const WorkloadTrace& trace_;
  const RequestMix* mix_;
  SubmitFn submit_;
  Params params_;
  Rng rng_;
  CompletionHook hook_;
  RejectionHook rejection_hook_;

  // Determinism audit (DESIGN.md §8): keyed access only on the run path;
  // the destructor's cancel sweep is the single iteration, waived in the
  // .cpp with an order-independence proof.
  std::unordered_map<std::uint64_t, User> users_;
  std::uint64_t next_user_id_ = 1;
  std::uint64_t next_request_id_ = 1;
  std::size_t retire_pending_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  LogHistogram rt_histogram_;
  std::unique_ptr<PeriodicTask> adjust_task_;
};

}  // namespace conscale
