#include "workload/open_loop.h"

#include <algorithm>

namespace conscale {

OpenLoopGenerator::OpenLoopGenerator(Simulation& sim,
                                     const WorkloadTrace& rate_trace,
                                     const RequestMix& mix, SubmitFn submit,
                                     Params params)
    : sim_(sim), rate_trace_(rate_trace), mix_(mix),
      submit_(std::move(submit)), rng_(params.seed),
      rate_max_(rate_trace.peak_users()) {
  if (rate_max_ <= 0.0) {
    running_ = false;
    return;
  }
  schedule_next();
}

OpenLoopGenerator::~OpenLoopGenerator() { stop(); }

void OpenLoopGenerator::stop() {
  running_ = false;
  next_.cancel();
}

void OpenLoopGenerator::schedule_next() {
  if (!running_) return;
  const double gap = rng_.exponential(1.0 / rate_max_);
  next_ = sim_.schedule_after(gap, [this] { arrival(); });
}

void OpenLoopGenerator::arrival() {
  if (!running_) return;
  const SimTime now = sim_.now();
  if (now > rate_trace_.duration()) {
    running_ = false;
    return;
  }
  // Thinning: accept this candidate with probability rate(t) / rate_max.
  const double rate = std::max(rate_trace_.users_at(now), 0.0);
  if (rng_.uniform() * rate_max_ < rate) {
    RequestContext ctx;
    ctx.id = next_request_id_++;
    ctx.request_class = &mix_.pick(rng_);
    ctx.issued_at = now;
    ++stats_.issued;
    submit_(ctx, [this, issued_at = now](RequestOutcome outcome) {
      if (outcome == RequestOutcome::kRejected) {
        ++stats_.rejected;
        return;
      }
      ++stats_.completed;
      stats_.response_times.add(sim_.now() - issued_at);
    });
  }
  schedule_next();
}

}  // namespace conscale
