// The closed-loop client core (§II-A). The paper's load generator is one
// mechanism: users think, send one request, wait for the reply, and their
// number follows a WorkloadTrace (the six Fig 9 shapes). ClientPopulation
// (i.i.d. request classes on a plain Simulation), SessionPopulation (Markov
// sessions) and SessionShard (one part of a population on the lane engine)
// share everything below and keep only their own per-user step.
//
// The core schedules no event and draws no random number. It stores the
// users, tracks the trace target, retires users at their next activity and
// counts requests; each population decides when to call it, so every event
// and every RNG draw stays where that population puts it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/histogram.h"
#include "common/time_units.h"
#include "simcore/event.h"
#include "workload/request.h"
#include "workload/trace.h"

namespace conscale {

/// The system entry point (topology::ServiceGraph::submit's shape): deliver
/// `ctx` and invoke the continuation when the response returns, reporting
/// whether the request was served or shed by admission control.
using SubmitFn =
    std::function<void(const RequestContext&,
                       std::function<void(RequestOutcome)> on_response)>;
/// Observer of served requests: the client-perceived response time.
using CompletionHook = std::function<void(double rt)>;
/// Observer of shed requests; fires at the rejection instant.
using RejectionHook = std::function<void()>;

/// How often a closed-loop population re-reads its trace.
inline constexpr SimDuration kTrackingPeriod = 0.5;

/// Client-side request accounting. A shed request counts as issued and
/// rejected and records no response time.
struct ClientStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  LogHistogram response_times;

  void merge(const ClientStats& other);
};

class ClosedLoopCore {
 public:
  /// One user: the issue time of its request in flight, its pending event
  /// (think timer or next step), and one word of the population's own per
  /// user state (SessionPopulation's Markov state). A 24-byte slot without
  /// that word measured a higher peak RSS on million-session runs, because
  /// the allocator kept more freed buffers (EXPERIMENTS.md); the word costs
  /// nothing there.
  struct Slot {
    SimTime issued_at = 0.0;
    EventHandle pending;
    std::size_t state = 0;
  };

  /// Tracks part `share` of `shares` of `trace`'s users: part i owns
  /// [total*i/S, total*(i+1)/S), so the parts sum to the total exactly and
  /// depend only on (i, S). The defaults track the whole trace.
  explicit ClosedLoopCore(const WorkloadTrace& trace, std::size_t share = 0,
                          std::size_t shares = 1);
  ClosedLoopCore(const ClosedLoopCore&) = delete;
  ClosedLoopCore& operator=(const ClosedLoopCore&) = delete;

  /// Retargets the population to the trace at `now` and returns how many
  /// users the caller must add. Pending retirements are cancelled first (a
  /// user about to leave stays); a target below the live count marks the
  /// excess to retire at their next activity.
  std::size_t retarget(SimTime now);
  /// A cleared slot for a new user; freed slots are reused first.
  std::uint32_t add_user();
  /// Retires the user in `slot` when a retirement is pending: cancels its
  /// pending event and frees the slot. Call at each of the user's
  /// activities; true means the user is gone.
  bool maybe_retire(std::uint32_t slot);

  Slot& slot(std::uint32_t index) { return slots_[index]; }

  /// Counts the request `slot` issues at `now`.
  void issue(std::uint32_t slot, SimTime now);
  /// Counts the reply to `slot`'s request at `now`: a served request adds
  /// its response time and fires the completion hook, a shed one fires the
  /// rejection hook. Returns true when the request was served.
  bool reply(std::uint32_t slot, RequestOutcome outcome, SimTime now);

  /// Cancels every user's pending event. A population whose Simulation may
  /// run on after it is gone calls this from its destructor.
  void cancel_pending();

  /// Users alive, including those marked to retire at their next activity.
  std::size_t active_users() const { return slots_.size() - free_.size(); }
  const ClientStats& stats() const { return stats_; }

  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }
  void set_rejection_hook(RejectionHook hook) {
    rejection_hook_ = std::move(hook);
  }

 private:
  const WorkloadTrace& trace_;
  std::uint64_t share_;
  std::uint64_t shares_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t retire_pending_ = 0;
  ClientStats stats_;
  CompletionHook completion_hook_;
  RejectionHook rejection_hook_;
};

}  // namespace conscale
