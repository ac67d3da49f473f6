// SessionPopulation: a closed-loop user population whose users navigate a
// SessionModel instead of drawing request classes independently. Same
// trace-tracking semantics as ClientPopulation; sessions give the request
// stream its realistic short-range correlation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/histogram.h"
#include "common/rng.h"
#include "simcore/simulation.h"
#include "workload/client.h"
#include "workload/mix.h"
#include "workload/request.h"
#include "workload/session.h"
#include "workload/trace.h"

namespace conscale {

class SessionPopulation {
 public:
  /// ClientPopulation's submit shape and observers, so systems and
  /// monitoring hooks interchange.
  using SubmitFn = ClientPopulation::SubmitFn;
  using CompletionHook = ClientPopulation::CompletionHook;
  using RejectionHook = ClientPopulation::RejectionHook;

  struct Params {
    SimDuration adjust_period = 0.5;
    /// Pause between a session ending and the same user starting the next
    /// one (reading something else, coming back later).
    double inter_session_gap_mean = 5.0;
    std::uint64_t seed = 7;
  };

  /// A shed request (RequestOutcome::kRejected) follows ClientPopulation's
  /// rule: it counts toward requests_issued()/requests_rejected(), records
  /// no RT sample and no per-state completion, and the user carries on as
  /// after a response.
  SessionPopulation(Simulation& sim, const WorkloadTrace& trace,
                    const RequestMix& mix, const SessionModel& model,
                    SubmitFn submit, Params params);
  ~SessionPopulation();
  SessionPopulation(const SessionPopulation&) = delete;
  SessionPopulation& operator=(const SessionPopulation&) = delete;

  void set_completion_hook(CompletionHook hook) { hook_ = std::move(hook); }
  void set_rejection_hook(RejectionHook hook) {
    rejection_hook_ = std::move(hook);
  }

  std::size_t active_users() const { return users_.size(); }
  std::uint64_t requests_issued() const { return issued_; }
  std::uint64_t requests_completed() const { return completed_; }
  std::uint64_t requests_rejected() const { return rejected_; }
  std::uint64_t sessions_started() const { return sessions_started_; }
  std::uint64_t sessions_finished() const { return sessions_finished_; }
  const LogHistogram& response_times() const { return rt_histogram_; }
  /// Completed requests per session state name (distribution checks).
  const std::map<std::string, std::uint64_t>& per_state_completions() const {
    return per_state_;
  }

 private:
  struct User {
    std::size_t state = 0;
    bool in_session = false;
    EventHandle pending;
  };

  void adjust_population(SimTime now);
  void spawn_user();
  bool maybe_retire(std::uint64_t id);
  void begin_session(std::uint64_t id);
  void issue(std::uint64_t id);
  void after_response(std::uint64_t id, bool served);

  Simulation& sim_;
  const WorkloadTrace& trace_;
  const RequestMix& mix_;
  const SessionModel& model_;
  SubmitFn submit_;
  Params params_;
  Rng rng_;

  // Determinism audit (DESIGN.md §8): users_ is accessed by key everywhere
  // on the run path (spawn/retire/issue via user id); the single iteration
  // is the destructor's cancel sweep, waived in the .cpp with an
  // order-independence proof. Retirement picks the user whose event fires
  // next, not a hash-order victim.
  std::unordered_map<std::uint64_t, User> users_;
  std::uint64_t next_user_id_ = 1;
  std::uint64_t next_request_id_ = 1;
  std::size_t retire_pending_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t sessions_started_ = 0;
  std::uint64_t sessions_finished_ = 0;
  LogHistogram rt_histogram_;
  std::map<std::string, std::uint64_t> per_state_;
  CompletionHook hook_;
  RejectionHook rejection_hook_;
  std::unique_ptr<PeriodicTask> adjust_task_;
};

}  // namespace conscale
