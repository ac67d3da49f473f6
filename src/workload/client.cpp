#include "workload/client.h"

#include <cmath>

namespace conscale {

ClientPopulation::ClientPopulation(Simulation& sim, const WorkloadTrace& trace,
                                   const RequestMix& mix, SubmitFn submit,
                                   Params params)
    : sim_(sim), trace_(trace), mix_(&mix), submit_(std::move(submit)),
      params_(params), rng_(params.seed) {
  adjust_population(sim_.now());
  adjust_task_ = std::make_unique<PeriodicTask>(
      sim_, params_.adjust_period,
      [this](SimTime now) { adjust_population(now); });
}

ClientPopulation::~ClientPopulation() {
  adjust_task_.reset();
  // Order-independence proof: cancel() only flips each user's own arena
  // slot; no slot is shared between users, nothing is measured afterwards,
  // and the destructor runs after all results are extracted.
  // detlint: allow(unordered-iter) teardown-only; per-user cancel is commutative
  for (auto& [id, user] : users_) user.think_event.cancel();
}

void ClientPopulation::adjust_population(SimTime now) {
  const auto target = static_cast<std::size_t>(
      std::llround(std::max(trace_.users_at(now), 0.0)));
  const std::size_t active = users_.size();
  // Users logically alive = active minus those already marked for retirement.
  const std::size_t alive = active - std::min(retire_pending_, active);
  if (target > alive) {
    const std::size_t to_spawn = target - alive;
    // Cancel pending retirements first (a user about to leave "stays").
    const std::size_t cancelled = std::min(retire_pending_, to_spawn);
    retire_pending_ -= cancelled;
    for (std::size_t i = 0; i < to_spawn - cancelled; ++i) spawn_user();
  } else if (target < alive) {
    retire_pending_ += alive - target;
  }
}

void ClientPopulation::spawn_user() {
  const std::uint64_t id = next_user_id_++;
  users_.emplace(id, User{});
  user_think(id);
}

void ClientPopulation::user_think(std::uint64_t id) {
  if (maybe_retire(id)) return;
  auto it = users_.find(id);
  if (it == users_.end()) return;
  const double think =
      params_.think_time_mean > 0.0
          ? rng_.exponential(params_.think_time_mean)
          : 0.0;
  it->second.think_event =
      sim_.schedule_after(think, [this, id] { user_submit(id); });
}

void ClientPopulation::user_submit(std::uint64_t id) {
  if (maybe_retire(id)) return;
  auto it = users_.find(id);
  if (it == users_.end()) return;
  it->second.in_flight = true;

  RequestContext ctx;
  ctx.id = next_request_id_++;
  ctx.request_class = &mix_->pick(rng_);
  ctx.issued_at = sim_.now();
  ++issued_;

  submit_(ctx, [this, id, ctx](RequestOutcome outcome) {
    if (outcome == RequestOutcome::kServed) {
      ++completed_;
      const double rt = sim_.now() - ctx.issued_at;
      rt_histogram_.add(rt);
      if (hook_) hook_(ctx.issued_at, rt, *ctx.request_class);
    } else {
      ++rejected_;
      if (rejection_hook_) rejection_hook_(sim_.now());
    }
    auto it2 = users_.find(id);
    if (it2 == users_.end()) return;
    it2->second.in_flight = false;
    user_think(id);
  });
}

bool ClientPopulation::maybe_retire(std::uint64_t id) {
  if (retire_pending_ == 0) return false;
  auto it = users_.find(id);
  if (it == users_.end()) return true;
  --retire_pending_;
  it->second.think_event.cancel();
  users_.erase(it);
  return true;
}

}  // namespace conscale
