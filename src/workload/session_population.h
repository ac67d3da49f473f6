// SessionPopulation: a closed-loop user population whose users navigate a
// SessionModel instead of drawing request classes independently. The
// closed-loop mechanics are ClientPopulation's (workload/population.h);
// sessions give the request stream its realistic short-range correlation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "simcore/simulation.h"
#include "workload/mix.h"
#include "workload/population.h"
#include "workload/session.h"
#include "workload/trace.h"

namespace conscale {

class SessionPopulation {
 public:
  struct Params {
    /// Pause between a session ending and the same user starting the next
    /// one (reading something else, coming back later).
    double inter_session_gap_mean = 5.0;
    std::uint64_t seed = 7;
  };

  /// A shed request (RequestOutcome::kRejected) follows ClientPopulation's
  /// rule: it counts as issued and rejected, records no response time and
  /// no per-state completion, and the user carries on as after a response.
  SessionPopulation(Simulation& sim, const WorkloadTrace& trace,
                    const RequestMix& mix, const SessionModel& model,
                    SubmitFn submit, Params params);
  SessionPopulation(const SessionPopulation&) = delete;
  SessionPopulation& operator=(const SessionPopulation&) = delete;

  void set_completion_hook(CompletionHook hook) {
    core_.set_completion_hook(std::move(hook));
  }
  void set_rejection_hook(RejectionHook hook) {
    core_.set_rejection_hook(std::move(hook));
  }

  std::size_t active_users() const { return core_.active_users(); }
  const ClientStats& stats() const { return core_.stats(); }
  std::uint64_t sessions_started() const { return sessions_started_; }
  std::uint64_t sessions_finished() const { return sessions_finished_; }
  /// Completed requests per session state name (distribution checks).
  const std::map<std::string, std::uint64_t>& per_state_completions() const {
    return per_state_;
  }

 private:
  /// The state word of a user between sessions: its wake-up begins the
  /// next session instead of issuing the next request.
  static constexpr std::size_t kBetweenSessions = SIZE_MAX;

  void track(SimTime now);
  void wake(std::uint32_t slot);
  void begin_session(std::uint32_t slot);
  void issue(std::uint32_t slot);
  void after_response(std::uint32_t slot, bool served);

  Simulation& sim_;
  const RequestMix& mix_;
  const SessionModel& model_;
  SubmitFn submit_;
  Params params_;
  Rng rng_;
  ClosedLoopCore core_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t sessions_started_ = 0;
  std::uint64_t sessions_finished_ = 0;
  std::map<std::string, std::uint64_t> per_state_;
  std::unique_ptr<PeriodicTask> tracking_;
};

}  // namespace conscale
