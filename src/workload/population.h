// The closed-loop client core (§II-A). The paper's load generator is one
// mechanism: users think, send one request, wait for the reply, and their
// number follows a WorkloadTrace (the six Fig 9 shapes). ClientPopulation
// (i.i.d. request classes on a plain Simulation), SessionPopulation (Markov
// sessions) and SessionShard (one part of a population on the lane engine)
// share everything below and keep only their own per-user step.
//
// The core draws no random number. It stores the users, tracks the trace
// target, retires users at their next activity, counts requests and keeps
// the users' wake-ups (think timers, session gaps): one min-heap of 24-byte
// (time, sequence, slot) entries, under exactly one kernel event armed for
// the earliest entry with that entry's own key. A population draws a
// wake-up's key when it arms it, from the counter its own scheduling call
// would have used (Simulation::reserve_sequence for plain events, its lane
// actor's stream for keyed ones), so the kernel runs each wake-up exactly
// where one event per wake-up would have run it, and every RNG draw stays
// where that population puts it. A user costs its 16-byte slot plus, while
// it waits to wake, a 24-byte entry (DESIGN.md §6.4).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/histogram.h"
#include "common/time_units.h"
#include "simcore/simulation.h"
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
  /// One user: the issue time of its request in flight and one word of the
  /// population's own per-user state (SessionPopulation's Markov state).
  struct Slot {
    SimTime issued_at = 0.0;
    std::size_t state = 0;
  };
  /// What a population does when a user's wake-up is due.
  using WakeHandler = std::function<void(std::uint32_t slot)>;

  /// Tracks part `share` of `shares` of `trace`'s users: part i owns
  /// [total*i/S, total*(i+1)/S), so the parts sum to the total exactly and
  /// depend only on (i, S). The defaults track the whole trace. Wake-ups
  /// run on `sim` in kernel group `group`: 0 for a population of plain
  /// events, whose keys come from sim.reserve_sequence(), or a lane actor's
  /// stream, whose keys come from LaneActor::reserve_seq().
  ClosedLoopCore(Simulation& sim, std::uint64_t group, WakeHandler on_wake,
                 const WorkloadTrace& trace, std::size_t share = 0,
                 std::size_t shares = 1);
  /// Cancels the one armed kernel event, so a Simulation that runs on after
  /// the population runs nothing into it.
  ~ClosedLoopCore() { armed_.cancel(); }
  ClosedLoopCore(const ClosedLoopCore&) = delete;
  ClosedLoopCore& operator=(const ClosedLoopCore&) = delete;

  /// Retargets the population to the trace at `now` and returns how many
  /// users the caller must add. Pending retirements are cancelled first (a
  /// user about to leave stays); a target below the live count marks the
  /// excess to retire at their next activity.
  std::size_t retarget(SimTime now);
  /// A cleared slot for a new user; freed slots are reused first.
  std::uint32_t add_user();
  /// Retires the user in `slot` when a retirement is pending and frees the
  /// slot. Call at each of the user's activities (a wake-up or a reply),
  /// where it has no wake-up armed; true means the user is gone.
  bool maybe_retire(std::uint32_t slot);

  Slot& slot(std::uint32_t index) { return slots_[index]; }

  /// Arms `slot`'s next wake-up `delay` seconds from now (negative clamps
  /// to 0) under `seq`, the key the population drew for it at this moment.
  /// The handler runs for the slot when the kernel reaches
  /// (now + delay, group, seq). A user has at most one wake-up armed.
  void wake_after(std::uint32_t slot, SimDuration delay, std::uint64_t seq);

  /// Counts the request `slot` issues at `now`.
  void issue(std::uint32_t slot, SimTime now);
  /// Counts the reply to `slot`'s request at `now`: a served request adds
  /// its response time and fires the completion hook, a shed one fires the
  /// rejection hook. Returns true when the request was served.
  bool reply(std::uint32_t slot, RequestOutcome outcome, SimTime now);

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
  /// An armed wake-up: its kernel key (time, group_, sequence) and user.
  struct Wake {
    SimTime time;
    std::uint64_t sequence;
    std::uint32_t slot;
  };
  static bool later(const Wake& a, const Wake& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.sequence > b.sequence;
  }
  /// Schedules the kernel event for the earliest wake-up under its key.
  void arm_earliest();
  /// The kernel event: wakes the earliest user, then re-arms.
  void wake_earliest();

  Simulation& sim_;
  std::uint64_t group_;
  WakeHandler on_wake_;
  const WorkloadTrace& trace_;
  std::uint64_t share_;
  std::uint64_t shares_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  /// Min-heap under later(); outside wake_earliest(), armed_ is pending
  /// exactly when it is non-empty, for its front.
  std::vector<Wake> wakes_;
  EventHandle armed_;
  std::size_t retire_pending_ = 0;
  ClientStats stats_;
  CompletionHook completion_hook_;
  RejectionHook rejection_hook_;
};

}  // namespace conscale
