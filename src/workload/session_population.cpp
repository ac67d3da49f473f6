#include "workload/session_population.h"

namespace conscale {

SessionPopulation::SessionPopulation(Simulation& sim,
                                     const WorkloadTrace& trace,
                                     const RequestMix& mix,
                                     const SessionModel& model,
                                     SubmitFn submit, Params params)
    : sim_(sim), mix_(mix), model_(model), submit_(std::move(submit)),
      params_(params), rng_(params.seed),
      core_(sim, 0, [this](std::uint32_t slot) { wake(slot); }, trace) {
  track(sim_.now());
  tracking_ = std::make_unique<PeriodicTask>(
      sim_, kTrackingPeriod, [this](SimTime now) { track(now); });
}

void SessionPopulation::track(SimTime now) {
  for (std::size_t n = core_.retarget(now); n > 0; --n) {
    begin_session(core_.add_user());
  }
}

void SessionPopulation::wake(std::uint32_t slot) {
  if (core_.slot(slot).state == kBetweenSessions) {
    begin_session(slot);
  } else {
    issue(slot);
  }
}

void SessionPopulation::begin_session(std::uint32_t slot) {
  if (core_.maybe_retire(slot)) return;
  core_.slot(slot).state = model_.pick_entry(rng_);
  ++sessions_started_;
  // Issue through the event queue: users spawned at construction time must
  // not hit the system before its bootstrap VMs have come online.
  core_.wake_after(slot, 0.0, sim_.reserve_sequence());
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
    const double think = rng_.exponential(state.think_mean);
    core_.wake_after(slot, think, sim_.reserve_sequence());
  } else {
    // Session over: pause, then come back for a fresh one.
    ++sessions_finished_;
    core_.slot(slot).state = kBetweenSessions;
    const double gap = rng_.exponential(params_.inter_session_gap_mean);
    core_.wake_after(slot, gap, sim_.reserve_sequence());
  }
}

}  // namespace conscale
