#include "workload/client.h"

namespace conscale {

ClientPopulation::ClientPopulation(Simulation& sim, const WorkloadTrace& trace,
                                   const RequestMix& mix, SubmitFn submit,
                                   Params params)
    : sim_(sim), mix_(mix), submit_(std::move(submit)), params_(params),
      rng_(params.seed),
      core_(sim, 0, [this](std::uint32_t slot) { user_submit(slot); },
            trace) {
  track(sim_.now());
  tracking_ = std::make_unique<PeriodicTask>(
      sim_, kTrackingPeriod, [this](SimTime now) { track(now); });
}

void ClientPopulation::track(SimTime now) {
  for (std::size_t n = core_.retarget(now); n > 0; --n) {
    user_think(core_.add_user());
  }
}

void ClientPopulation::user_think(std::uint32_t slot) {
  if (core_.maybe_retire(slot)) return;
  const double think =
      params_.think_time_mean > 0.0
          ? rng_.exponential(params_.think_time_mean)
          : 0.0;
  core_.wake_after(slot, think, sim_.reserve_sequence());
}

void ClientPopulation::user_submit(std::uint32_t slot) {
  if (core_.maybe_retire(slot)) return;
  RequestContext ctx;
  ctx.id = next_request_id_++;
  ctx.request_class = &mix_.pick(rng_);
  ctx.issued_at = sim_.now();
  core_.issue(slot, ctx.issued_at);
  // [this, slot] is 16 bytes, which std::function stores without
  // allocating; the issue time waits in the slot.
  submit_(ctx, [this, slot](RequestOutcome outcome) {
    core_.reply(slot, outcome, sim_.now());
    user_think(slot);
  });
}

}  // namespace conscale
