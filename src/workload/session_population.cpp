#include "workload/session_population.h"

#include <cmath>

namespace conscale {

SessionPopulation::SessionPopulation(Simulation& sim,
                                     const WorkloadTrace& trace,
                                     const RequestMix& mix,
                                     const SessionModel& model,
                                     SubmitFn submit, Params params)
    : sim_(sim), trace_(trace), mix_(mix), model_(model),
      submit_(std::move(submit)), params_(params), rng_(params.seed) {
  adjust_population(sim_.now());
  adjust_task_ = std::make_unique<PeriodicTask>(
      sim_, params_.adjust_period,
      [this](SimTime now) { adjust_population(now); });
}

SessionPopulation::~SessionPopulation() {
  adjust_task_.reset();
  // Order-independence proof: cancel() only flips each user's own arena
  // slot; no slot is shared between users, nothing is measured afterwards,
  // and the destructor runs after all results are extracted.
  // detlint: allow(unordered-iter) teardown-only; per-user cancel is commutative
  for (auto& [id, user] : users_) user.pending.cancel();
}

void SessionPopulation::adjust_population(SimTime now) {
  const auto target = static_cast<std::size_t>(
      std::llround(std::max(trace_.users_at(now), 0.0)));
  const std::size_t active = users_.size();
  const std::size_t alive = active - std::min(retire_pending_, active);
  if (target > alive) {
    const std::size_t to_spawn = target - alive;
    const std::size_t cancelled = std::min(retire_pending_, to_spawn);
    retire_pending_ -= cancelled;
    for (std::size_t i = 0; i < to_spawn - cancelled; ++i) spawn_user();
  } else if (target < alive) {
    retire_pending_ += alive - target;
  }
}

void SessionPopulation::spawn_user() {
  const std::uint64_t id = next_user_id_++;
  users_.emplace(id, User{});
  begin_session(id);
}

bool SessionPopulation::maybe_retire(std::uint64_t id) {
  if (retire_pending_ == 0) return false;
  auto it = users_.find(id);
  if (it == users_.end()) return true;
  --retire_pending_;
  it->second.pending.cancel();
  users_.erase(it);
  return true;
}

void SessionPopulation::begin_session(std::uint64_t id) {
  if (maybe_retire(id)) return;
  auto it = users_.find(id);
  if (it == users_.end()) return;
  it->second.state = model_.pick_entry(rng_);
  it->second.in_session = true;
  ++sessions_started_;
  // Issue through the event queue: users spawned at construction time must
  // not hit the system before its bootstrap VMs have come online.
  it->second.pending = sim_.schedule_after(0.0, [this, id] { issue(id); });
}

void SessionPopulation::issue(std::uint64_t id) {
  auto it = users_.find(id);
  if (it == users_.end()) return;
  const auto& state = model_.states()[it->second.state];
  RequestContext ctx;
  ctx.id = next_request_id_++;
  ctx.request_class = &mix_.classes().at(state.class_index);
  ctx.issued_at = sim_.now();
  ++issued_;
  submit_(ctx, [this, id, ctx](RequestOutcome outcome) {
    const bool served = outcome == RequestOutcome::kServed;
    if (served) {
      ++completed_;
      const double rt = sim_.now() - ctx.issued_at;
      rt_histogram_.add(rt);
      if (hook_) hook_(ctx.issued_at, rt, *ctx.request_class);
    } else {
      ++rejected_;
      if (rejection_hook_) rejection_hook_(sim_.now());
    }
    after_response(id, served);
  });
}

void SessionPopulation::after_response(std::uint64_t id, bool served) {
  auto it = users_.find(id);
  if (it == users_.end()) return;
  const auto& state = model_.states()[it->second.state];
  if (served) ++per_state_[state.name];
  if (maybe_retire(id)) return;
  it = users_.find(id);
  if (it == users_.end()) return;
  const auto next_state = model_.next(it->second.state, rng_);
  if (next_state) {
    it->second.state = *next_state;
    it->second.pending = sim_.schedule_after(
        rng_.exponential(state.think_mean), [this, id] { issue(id); });
  } else {
    // Session over: pause, then come back for a fresh one.
    it->second.in_session = false;
    ++sessions_finished_;
    it->second.pending = sim_.schedule_after(
        rng_.exponential(params_.inter_session_gap_mean),
        [this, id] { begin_session(id); });
  }
}

}  // namespace conscale
