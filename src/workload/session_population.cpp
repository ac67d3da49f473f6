#include "workload/session_population.h"

namespace conscale {

SessionPopulation::SessionPopulation(Simulation& sim,
                                     const WorkloadTrace& trace,
                                     const RequestMix& mix,
                                     const SessionModel& model,
                                     SubmitFn submit, Params params)
    : sim_(sim), mix_(mix), model_(model), submit_(std::move(submit)),
      params_(params), rng_(params.seed), core_(trace) {
  track(sim_.now());
  tracking_ = std::make_unique<PeriodicTask>(
      sim_, kTrackingPeriod, [this](SimTime now) { track(now); });
}

void SessionPopulation::track(SimTime now) {
  for (std::size_t n = core_.retarget(now); n > 0; --n) {
    begin_session(core_.add_user());
  }
}

void SessionPopulation::begin_session(std::uint32_t slot) {
  if (core_.maybe_retire(slot)) return;
  core_.slot(slot).state = model_.pick_entry(rng_);
  ++sessions_started_;
  // Issue through the event queue: users spawned at construction time must
  // not hit the system before its bootstrap VMs have come online.
  core_.slot(slot).pending =
      sim_.schedule_after(0.0, [this, slot] { issue(slot); });
}

void SessionPopulation::issue(std::uint32_t slot) {
  const auto& state = model_.states()[core_.slot(slot).state];
  RequestContext ctx;
  ctx.id = next_request_id_++;
  ctx.request_class = &mix_.classes().at(state.class_index);
  ctx.issued_at = sim_.now();
  core_.issue(slot, ctx.issued_at);
  submit_(ctx, [this, slot](RequestOutcome outcome) {
    after_response(slot, core_.reply(slot, outcome, sim_.now()));
  });
}

void SessionPopulation::after_response(std::uint32_t slot, bool served) {
  const auto& state = model_.states()[core_.slot(slot).state];
  if (served) ++per_state_[state.name];
  if (core_.maybe_retire(slot)) return;
  const auto next_state = model_.next(core_.slot(slot).state, rng_);
  if (next_state) {
    core_.slot(slot).state = *next_state;
    core_.slot(slot).pending = sim_.schedule_after(
        rng_.exponential(state.think_mean), [this, slot] { issue(slot); });
  } else {
    // Session over: pause, then come back for a fresh one.
    ++sessions_finished_;
    core_.slot(slot).pending = sim_.schedule_after(
        rng_.exponential(params_.inter_session_gap_mean),
        [this, slot] { begin_session(slot); });
  }
}

}  // namespace conscale
