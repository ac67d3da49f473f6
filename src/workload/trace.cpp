#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace conscale {

namespace {

constexpr SimDuration kSamplePeriod = 1.0;

}  // namespace

std::string to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kLargeVariations:
      return "large_variations";
    case TraceKind::kQuicklyVarying:
      return "quickly_varying";
    case TraceKind::kSlowlyVarying:
      return "slowly_varying";
    case TraceKind::kBigSpike:
      return "big_spike";
    case TraceKind::kDualPhase:
      return "dual_phase";
    case TraceKind::kSteepTriPhase:
      return "steep_tri_phase";
  }
  return "unknown";
}

const std::vector<TraceKind>& all_trace_kinds() {
  static const std::vector<TraceKind> kinds = {
      TraceKind::kLargeVariations, TraceKind::kQuicklyVarying,
      TraceKind::kSlowlyVarying,   TraceKind::kBigSpike,
      TraceKind::kDualPhase,       TraceKind::kSteepTriPhase};
  return kinds;
}

WorkloadTrace::WorkloadTrace(std::string name, SimDuration sample_period,
                             std::vector<double> samples)
    : name_(std::move(name)), sample_period_(sample_period),
      samples_(std::move(samples)) {
  if (samples_.size() < 2) {
    throw std::invalid_argument("WorkloadTrace needs at least two samples");
  }
  if (sample_period_ <= 0.0) {
    throw std::invalid_argument("WorkloadTrace sample period must be > 0");
  }
}

double WorkloadTrace::users_at(SimTime t) const {
  if (t <= 0.0) return samples_.front();
  const double pos = t / sample_period_;
  const auto idx = static_cast<std::size_t>(pos);
  if (idx + 1 >= samples_.size()) return samples_.back();
  const double frac = pos - static_cast<double>(idx);
  return samples_[idx] + frac * (samples_[idx + 1] - samples_[idx]);
}

double WorkloadTrace::peak_users() const {
  return *std::max_element(samples_.begin(), samples_.end());
}

namespace {

// Shape functions return a load level in [0, 1] for phase u in [0, 1].
// All traces start near their floor: the paper's runs begin with a 1/1/1
// topology that copes with the initial load, and burstiness arrives later.
double gaussian_bump(double u, double center, double width) {
  const double d = (u - center) / width;
  return std::exp(-0.5 * d * d);
}

double shape_large_variations(double u) {
  // Three steep crests of different heights with deep valleys between them
  // (Fig 9(a)). Rise time ~25-35 s out of a 720 s run — decidedly faster
  // than the ~17 s detect+provision latency per VM, so every crest opens a
  // temporary-overload window, exactly like the paper's 62 s / 244 s / 545 s
  // spike periods.
  return 0.18 + 0.48 * gaussian_bump(u, 0.13, 0.035) +
         0.82 * gaussian_bump(u, 0.44, 0.045) +
         0.60 * gaussian_bump(u, 0.79, 0.038);
}

double shape_quickly_varying(double u) {
  // Fast oscillation between ~1/3 and full load: ~9 bursts over the run,
  // sharpened crests (Fig 9(b)).
  const double osc =
      0.5 + 0.5 * std::sin(2.0 * std::numbers::pi * 9.0 * u -
                           std::numbers::pi / 2.0);
  return 0.34 + 0.66 * osc * osc;
}

double shape_slowly_varying(double u) {
  // A single broad hump: rise through the first half, fall in the second.
  const double hump = std::sin(std::numbers::pi * u);
  return 0.12 + 0.88 * hump * hump;
}

double shape_big_spike(double u) {
  const double base = 0.32 + 0.05 * std::sin(2.0 * std::numbers::pi * u);
  // Sudden spike around 45% of the run, ~8% of the duration wide.
  const double center = 0.45;
  const double width = 0.04;
  const double d = (u - center) / width;
  const double spike = std::exp(-0.5 * d * d);
  return base + 0.68 * spike;
}

double shape_dual_phase(double u) {
  // Low plateau, steep transition, high plateau, settle back down at the end.
  const double rise = 1.0 / (1.0 + std::exp(-(u - 0.40) / 0.025));
  const double fall = 1.0 / (1.0 + std::exp(-(u - 0.92) / 0.02));
  return 0.30 + 0.62 * rise - 0.55 * fall;
}

double shape_steep_tri_phase(double u) {
  // Three steep steps up and then back down; each riser takes ~15-20 s,
  // comparable to one VM provisioning period (Fig 9(f)).
  auto step = [](double x, double at) {
    return 1.0 / (1.0 + std::exp(-(x - at) / 0.006));
  };
  const double up =
      step(u, 0.18) + step(u, 0.38) + step(u, 0.58);
  const double down = step(u, 0.78) + step(u, 0.90);
  return 0.16 + 0.28 * up - 0.36 * down;
}

double shape_value(TraceKind kind, double u) {
  switch (kind) {
    case TraceKind::kLargeVariations:
      return shape_large_variations(u);
    case TraceKind::kQuicklyVarying:
      return shape_quickly_varying(u);
    case TraceKind::kSlowlyVarying:
      return shape_slowly_varying(u);
    case TraceKind::kBigSpike:
      return shape_big_spike(u);
    case TraceKind::kDualPhase:
      return shape_dual_phase(u);
    case TraceKind::kSteepTriPhase:
      return shape_steep_tri_phase(u);
  }
  return 0.5;
}

}  // namespace

WorkloadTrace make_trace(TraceKind kind, const TraceParams& params) {
  // A run shorter than one sample period still gets the two samples a
  // WorkloadTrace needs.
  const auto count = std::max<std::size_t>(
      static_cast<std::size_t>(params.duration / kSamplePeriod) + 1, 2);
  Rng rng(params.seed ^ (static_cast<std::uint64_t>(kind) * 0x9e3779b9ULL));
  std::vector<double> samples;
  samples.reserve(count);
  const double floor_users = params.max_users * kTraceFloorFraction;
  // First pass: raw shape values, tracked for normalization so every trace
  // peaks exactly at max_users regardless of shape arithmetic.
  std::vector<double> raw(count);
  double raw_max = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = static_cast<double>(i) / static_cast<double>(count - 1);
    raw[i] = std::max(shape_value(kind, u), 0.0);
    raw_max = std::max(raw_max, raw[i]);
  }
  if (raw_max <= 0.0) raw_max = 1.0;
  for (std::size_t i = 0; i < count; ++i) {
    double users =
        floor_users + (params.max_users - floor_users) * raw[i] / raw_max;
    if (params.noise_fraction > 0.0) {
      users *= 1.0 + params.noise_fraction * rng.normal();
    }
    samples.push_back(std::clamp(users, 0.0, params.max_users * 1.05));
  }
  return WorkloadTrace(to_string(kind), kSamplePeriod, std::move(samples));
}

WorkloadTrace make_constant_trace(double users, SimDuration duration) {
  const auto count =
      static_cast<std::size_t>(duration / kSamplePeriod) + 1;
  return WorkloadTrace("constant", kSamplePeriod,
                       std::vector<double>(std::max<std::size_t>(count, 2),
                                           users));
}

WorkloadTrace make_ramp_trace(double lo_users, double hi_users,
                              SimDuration duration) {
  const auto count = std::max<std::size_t>(
      static_cast<std::size_t>(duration / kSamplePeriod) + 1, 3);
  std::vector<double> samples(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = static_cast<double>(i) / static_cast<double>(count - 1);
    const double tri = u < 0.5 ? 2.0 * u : 2.0 * (1.0 - u);
    samples[i] = lo_users + (hi_users - lo_users) * tri;
  }
  return WorkloadTrace("ramp", kSamplePeriod, std::move(samples));
}

}  // namespace conscale
