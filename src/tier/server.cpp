#include "tier/server.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace conscale {

namespace {

/// One sampled demand: log-normal around `mean` with the class's CV; a
/// non-positive mean draws nothing, so the RNG sequence skips that phase.
double draw(Rng& rng, double mean, double cv) {
  return mean <= 0.0 ? 0.0 : rng.lognormal_mean_cv(mean, cv);
}

}  // namespace

Server::Server(Simulation& sim, Params params)
    : sim_(sim), params_(std::move(params)), rng_(params_.seed),
      cpu_(sim, params_.cores, params_.speed, params_.contention),
      disk_(sim, params_.disk_channels),
      threads_(params_.name + ".threads",
               std::max<std::size_t>(params_.thread_pool_size, 1)) {
  if (params_.downstream_pool_size > 0) {
    downstream_pool_ = std::make_unique<TokenPool>(
        params_.name + ".dbconn", params_.downstream_pool_size);
  }
}

void Server::set_downstream(DownstreamFn downstream) {
  downstream_ = std::move(downstream);
}

void Server::set_thread_pool_size(std::size_t size) {
  threads_.resize(std::max<std::size_t>(size, 1));
}

void Server::set_downstream_pool_size(std::size_t size) {
  if (!downstream_pool_) {
    if (size == 0) return;
    downstream_pool_ =
        std::make_unique<TokenPool>(params_.name + ".dbconn", size);
    return;
  }
  downstream_pool_->resize(std::max<std::size_t>(size, 1));
}

void Server::set_cores(int cores) { cpu_.set_cores(cores); }

Server::Visit* Server::live(VisitRef ref) {
  Visit& visit = visits_[ref.slot];
  return visit.generation == ref.generation ? &visit : nullptr;
}

void Server::release_visit(std::uint32_t slot) {
  Visit& visit = visits_[slot];
  ++visit.generation;
  visit.next_free = free_head_;
  free_head_ = slot;
}

void Server::handle(const RequestContext& ctx, Completion done) {
  const auto tier = static_cast<std::size_t>(params_.tier_index);
  if (ctx.request_class == nullptr ||
      tier >= ctx.request_class->tiers.size()) {
    throw std::logic_error("Server '" + params_.name +
                           "': request class has no demand for tier " +
                           std::to_string(params_.tier_index));
  }
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = visits_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(visits_.size());
    visits_.emplace_back();
  }
  Visit& visit = visits_[slot];
  ++visit.generation;
  visit.ctx = ctx;
  visit.done = std::move(done);
  visit.arrival = sim_.now();
  visit.demand = &ctx.request_class->tiers[tier];
  visit.arrival_seq = next_arrival_seq_++;
  visit.admitted = false;
  ++in_flight_;
  const VisitRef ref{slot, visit.generation};
  threads_.acquire([this, ref] { start_processing(ref); });
}

void Server::start_processing(VisitRef ref) {
  Visit* visit = live(ref);
  if (visit == nullptr) return;
  visit->admitted = true;
  const double mean = visit->demand->cpu_pre;
  const double cv = visit->ctx.request_class->demand_cv;
  for (auto& h : hooks_) {
    if (h.on_admitted) h.on_admitted(sim_.now());
  }
  const double cpu_pre = draw(rng_, mean, cv);
  if (cpu_pre > 0.0) {
    cpu_.submit(cpu_pre, [this, ref] { after_cpu(ref); });
  } else {
    after_cpu(ref);
  }
}

void Server::after_cpu(VisitRef ref) {
  const Visit* visit = live(ref);
  if (visit == nullptr) return;
  const double disk_demand = draw(rng_, visit->demand->disk,
                                  visit->ctx.request_class->demand_cv);
  if (disk_demand > 0.0) {
    disk_.submit(disk_demand, [this, ref] { after_disk(ref); });
  } else {
    after_disk(ref);
  }
}

void Server::after_disk(VisitRef ref) {
  const Visit* visit = live(ref);
  if (visit == nullptr) return;
  const double delay = draw(rng_, visit->demand->pure_delay,
                            visit->ctx.request_class->demand_cv);
  if (delay > 0.0) {
    sim_.schedule_after(delay, [this, ref] { after_delay(ref); });
  } else {
    after_delay(ref);
  }
}

void Server::after_delay(VisitRef ref) {
  Visit* visit = live(ref);
  if (visit == nullptr) return;
  visit->calls_remaining = visit->demand->downstream_calls;
  run_downstream_calls(ref);
}

void Server::run_downstream_calls(VisitRef ref) {
  Visit* visit = live(ref);
  if (visit == nullptr) return;
  if (visit->calls_remaining <= 0 || !downstream_) {
    // Final CPU burst, then depart.
    const double cpu_post = draw(rng_, visit->demand->cpu_post,
                                 visit->ctx.request_class->demand_cv);
    if (cpu_post > 0.0) {
      cpu_.submit(cpu_post, [this, ref] { finish(ref); });
    } else {
      finish(ref);
    }
    return;
  }
  --visit->calls_remaining;
  if (!downstream_pool_) {
    // A copy: the call may re-enter handle() and grow the slab.
    const RequestContext ctx = visit->ctx;
    downstream_(ctx, [this, ref] { run_downstream_calls(ref); });
    return;
  }
  downstream_pool_->acquire([this, ref] {
    const Visit* granted = live(ref);
    if (granted == nullptr) return;  // errored while waiting for a connection
    const RequestContext ctx = granted->ctx;
    downstream_(ctx, [this, ref] {
      // A stale ref means fail() reset the pool while the sub-request was
      // downstream: the token it held no longer exists, and releasing one
      // now would free a token of whichever visit reuses the slot.
      if (live(ref) == nullptr) return;
      downstream_pool_->release();
      run_downstream_calls(ref);
    });
  });
}

std::size_t Server::fail() {
  // Phase 1: error every live visit in arrival order. Releasing its slot
  // makes the ref held by every pending event, PS job, FCFS job and
  // downstream completion stale, so each of those no-ops when it fires;
  // admitted visits also retire from the concurrency integrators.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> doomed;
  for (std::uint32_t slot = 0; slot < visits_.size(); ++slot) {
    if (visits_[slot].generation % 2 == 1) {
      doomed.emplace_back(visits_[slot].arrival_seq, slot);
    }
  }
  std::sort(doomed.begin(), doomed.end());
  std::vector<Completion> replies;
  replies.reserve(doomed.size());
  for (const auto& entry : doomed) {
    const std::uint32_t slot = entry.second;
    const bool admitted = visits_[slot].admitted;
    replies.push_back(std::move(visits_[slot].done));
    release_visit(slot);
    if (!admitted) continue;
    for (auto& h : hooks_) {
      if (h.on_aborted) h.on_aborted(sim_.now());
    }
  }
  // Phase 2: wipe resources before any completion runs, so upstream
  // reactions see a consistent (empty) server.
  cpu_.abort_all();
  disk_.clear_queue();
  threads_.reset();
  if (downstream_pool_) downstream_pool_->reset();
  in_flight_ = 0;
  aborted_ += replies.size();
  // Phase 3: error the requests — the upstream gets its reply (a reset
  // connection) immediately, in arrival order.
  for (auto& done : replies) {
    if (done) done();
  }
  return replies.size();
}

void Server::finish(VisitRef ref) {
  Visit* visit = live(ref);
  if (visit == nullptr) return;
  const SimTime arrival = visit->arrival;
  // `done` may re-enter handle() on this server: move it out and free the
  // slot first, so the visit is gone before anything can reuse or grow the
  // slab.
  Completion done = std::move(visit->done);
  release_visit(ref.slot);
  threads_.release();
  assert(in_flight_ > 0);
  --in_flight_;
  ++completed_;
  const double rt = sim_.now() - arrival;
  for (auto& h : hooks_) {
    if (h.on_departed) h.on_departed(sim_.now(), rt);
  }
  if (done) done();
}

}  // namespace conscale
