// The six realistic bursty workload traces of Fig 9, as synthetic,
// shape-faithful reconstructions (the raw traces are proprietary; the
// categories are from Gandhi et al., "AutoScale", TOCS 2012):
//
//   large_variations  big repeated swings around a mid level
//   quickly_varying   fast oscillation between low and high
//   slowly_varying    one broad hump rising and falling slowly
//   big_spike         steady base with one sudden tall spike
//   dual_phase        low plateau then a step to a high plateau
//   steep_tri_phase   three steep steps up, then back down
//
// A trace maps time -> number of concurrent users (the closed-loop
// population size); the paper runs 12 minutes with up to 7 500 users.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time_units.h"

namespace conscale {

enum class TraceKind {
  kLargeVariations,
  kQuicklyVarying,
  kSlowlyVarying,
  kBigSpike,
  kDualPhase,
  kSteepTriPhase,
};

std::string to_string(TraceKind kind);
const std::vector<TraceKind>& all_trace_kinds();

/// Every trace shape's floor, as a fraction of its peak users.
constexpr double kTraceFloorFraction = 0.12;

/// Traces are sampled once a second.
struct TraceParams {
  SimDuration duration = 720.0;  ///< 12 minutes, as in §V
  double max_users = 7500.0;     ///< peak concurrent users
  double noise_fraction = 0.03;  ///< multiplicative jitter per sample
  std::uint64_t seed = 42;
};

/// A sampled users-over-time curve with interpolation.
class WorkloadTrace {
 public:
  WorkloadTrace(std::string name, SimDuration sample_period,
                std::vector<double> samples);

  /// Users at time `t` (linear interpolation; clamped at the ends).
  double users_at(SimTime t) const;

  SimDuration duration() const {
    return sample_period_ * static_cast<double>(samples_.size() - 1);
  }
  const std::string& name() const { return name_; }
  const std::vector<double>& samples() const { return samples_; }
  SimDuration sample_period() const { return sample_period_; }
  double peak_users() const;

 private:
  std::string name_;
  SimDuration sample_period_;
  std::vector<double> samples_;
};

/// Builds the requested trace shape.
WorkloadTrace make_trace(TraceKind kind, const TraceParams& params);

/// Flat trace (used by profiling runs and tests), sampled once a second.
WorkloadTrace make_constant_trace(double users, SimDuration duration);

/// Symmetric triangle ramp lo -> hi -> lo, used by the scatter-collection
/// profiling runs to sweep a server through its whole concurrency range;
/// sampled once a second.
WorkloadTrace make_ramp_trace(double lo_users, double hi_users,
                              SimDuration duration);

}  // namespace conscale
