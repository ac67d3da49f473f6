#include "metrics/interval.h"

namespace conscale {

IntervalAggregator::IntervalAggregator(Simulation& sim, Server& server,
                                       SimDuration period)
    : sim_(sim), period_(period), last_change_(sim.now()),
      window_start_(sim.now()) {
  // Seed the integrator with whatever is already in flight so mid-run
  // attachment (VMs added by scale-out) starts correct.
  current_ = server.processing();
  Server::Hooks hooks;
  hooks.on_admitted = [this](SimTime now) { note_admitted(now); };
  hooks.on_departed = [this](SimTime now, double rt) {
    note_departed(now, rt);
  };
  hooks.on_aborted = [this](SimTime now) { note_aborted(now); };
  server.add_hooks(std::move(hooks));
}

void IntervalAggregator::start(SampleCallback on_sample) {
  on_sample_ = std::move(on_sample);
  window_start_ = sim_.now();
  last_change_ = sim_.now();
  integral_ = 0.0;
  completions_ = 0;
  rt_sum_ = 0.0;
  tick_ = std::make_unique<PeriodicTask>(
      sim_, period_, [this](SimTime now) { emit(now); });
}

void IntervalAggregator::stop() { tick_.reset(); }

void IntervalAggregator::advance_integral(SimTime now) {
  integral_ += static_cast<double>(current_) * (now - last_change_);
  last_change_ = now;
}

void IntervalAggregator::note_admitted(SimTime now) {
  advance_integral(now);
  ++current_;
}

void IntervalAggregator::note_departed(SimTime now, double rt) {
  advance_integral(now);
  if (current_ == 0) {
    ++hook_underflows_;  // accounting bug upstream; see hook_underflows()
  } else {
    --current_;
  }
  ++completions_;
  rt_sum_ += rt;
  response_times_.add(rt);
}

void IntervalAggregator::note_aborted(SimTime now) {
  // A crash-errored request leaves the concurrency integral but is not a
  // completion — throughput and mean RT must not credit it.
  advance_integral(now);
  if (current_ == 0) {
    ++hook_underflows_;
  } else {
    --current_;
  }
}

void IntervalAggregator::emit(SimTime now) {
  advance_integral(now);
  const double window = now - window_start_;
  IntervalSample sample;
  sample.t_end = now;
  sample.concurrency = window > 0.0 ? integral_ / window : 0.0;
  sample.throughput =
      window > 0.0 ? static_cast<double>(completions_) / window : 0.0;
  sample.mean_rt =
      completions_ > 0 ? rt_sum_ / static_cast<double>(completions_) : 0.0;
  sample.completions = completions_;
  if (on_sample_) on_sample_(sample);

  window_start_ = now;
  integral_ = 0.0;
  completions_ = 0;
  rt_sum_ = 0.0;
}

}  // namespace conscale
