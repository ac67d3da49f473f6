#include "sct/estimator.h"

#include <algorithm>

namespace conscale {

namespace {

/// Buckets thinner than this are discarded as noise.
constexpr std::size_t kMinSamplesPerBucket = 4;
/// Moving-average half-width over bucket means before peak detection.
constexpr std::size_t kSmoothingRadius = 1;
/// Minimum number of dense buckets for a trustworthy estimate.
constexpr std::size_t kMinBuckets = 5;

}  // namespace

std::string to_string(SctStage stage) {
  switch (stage) {
    case SctStage::kAscending:
      return "ascending";
    case SctStage::kStable:
      return "stable";
    case SctStage::kDescending:
      return "descending";
  }
  return "?";
}

bool SctEstimator::at_peak(const ConcurrencyBucket& bucket,
                           const ConcurrencyBucket& peak,
                           double smoothed_value, double tp_max) const {
  if (smoothed_value >= (1.0 - params_.plateau_tolerance) * tp_max) {
    return true;
  }
  // Statistical intervention: indistinguishable from the peak bucket. A
  // noisy bucket can fail to *reject* equality while its mean is far below
  // the peak, so the test alone would let the ascending stage leak into the
  // plateau; require the bucket mean to at least be near the peak.
  if (bucket.throughput.mean() <
      (1.0 - 2.0 * params_.plateau_tolerance) * tp_max) {
    return false;
  }
  const TTestResult test = welch_t_test(bucket.throughput, peak.throughput);
  return !test.significant;
}

std::optional<SctEstimator::Analysis> SctEstimator::analyze(
    const ScatterSet& scatter) const {
  Analysis a;
  a.buckets = scatter.ordered_dense(kMinSamplesPerBucket);
  if (a.buckets.size() < kMinBuckets) return std::nullopt;

  std::vector<double> means;
  means.reserve(a.buckets.size());
  for (const auto* b : a.buckets) means.push_back(b->throughput.mean());
  a.smoothed = moving_average(means, kSmoothingRadius);

  a.peak_index = static_cast<std::size_t>(
      std::max_element(a.smoothed.begin(), a.smoothed.end()) -
      a.smoothed.begin());
  a.tp_max = a.smoothed[a.peak_index];
  if (a.tp_max <= 0.0) return std::nullopt;

  // Walk outward from the peak; the stable stage is the maximal contiguous
  // run of at-peak buckets containing the peak.
  a.lower_index = a.peak_index;
  while (a.lower_index > 0 &&
         at_peak(*a.buckets[a.lower_index - 1], *a.buckets[a.peak_index],
                 a.smoothed[a.lower_index - 1], a.tp_max)) {
    --a.lower_index;
  }
  a.upper_index = a.peak_index;
  while (a.upper_index + 1 < a.buckets.size() &&
         at_peak(*a.buckets[a.upper_index + 1], *a.buckets[a.peak_index],
                 a.smoothed[a.upper_index + 1], a.tp_max)) {
    ++a.upper_index;
  }
  return a;
}

std::optional<RationalRange> SctEstimator::estimate(
    const ScatterSet& scatter) const {
  auto analysis = analyze(scatter);
  if (!analysis) return std::nullopt;
  const Analysis& a = *analysis;

  RationalRange range;
  range.q_lower = a.buckets[a.lower_index]->q;
  range.q_upper = a.buckets[a.upper_index]->q;
  range.tp_max = a.tp_max;
  range.optimal = range.q_lower;
  if (params_.rt_sla > 0.0) {
    // Fig 6(b): inside the plateau pick the largest level that still meets
    // the latency threshold; if even Q_lower misses it, keep Q_lower (the
    // SLA is infeasible at peak throughput and throughput wins).
    for (std::size_t i = a.lower_index; i <= a.upper_index; ++i) {
      const auto& rt = a.buckets[i]->response_time;
      if (rt.count() == 0) continue;
      if (rt.mean() <= params_.rt_sla) {
        range.optimal = a.buckets[i]->q;
      }
    }
  }
  // The descending stage counts as *observed* only on strong evidence: some
  // dense bucket beyond Q_upper whose throughput sits both *practically*
  // (several tolerances) and *statistically* (Welch test vs the peak
  // bucket) below the plateau. Two failure modes this guards against:
  //  - a saturated server pinned at its allocation produces a noisy flat
  //    top whose edge buckets dip by chance; accepting those as descending
  //    shaves the recommendation on every refresh (a ratchet);
  //  - a calm window's sparse tail can dip spuriously; capping a healthy
  //    tier from it starts an under-allocation spiral (capped concurrency
  //    -> low CPU -> no hardware scaling -> the cap is never revisited).
  // Real overload windows pass easily: concurrency pinned at the (too
  // large) allocation yields a dense, deeply degraded bucket far beyond
  // the plateau — even when the mid range was transited too fast to sample.
  range.descending_observed = false;
  const double practical_floor =
      (1.0 - 3.0 * params_.plateau_tolerance) * a.tp_max;
  for (std::size_t i = a.upper_index + 1; i < a.buckets.size(); ++i) {
    if (a.buckets[i]->throughput.mean() >= practical_floor) continue;
    const TTestResult test = welch_t_test(
        a.buckets[i]->throughput, a.buckets[a.peak_index]->throughput);
    if (test.significant) {
      range.descending_observed = true;
      break;
    }
  }
  // q_upper is only a *measured* plateau edge if the observations continue
  // contiguously past it; a gap right after means the plateau's true extent
  // is unknown (data simply stops there).
  range.q_upper_censored =
      a.upper_index + 1 >= a.buckets.size() ||
      a.buckets[a.upper_index + 1]->q > a.buckets[a.upper_index]->q + 2;
  range.buckets_used = a.buckets.size();
  for (const auto* b : a.buckets) {
    range.samples_used += b->throughput.count();
  }
  return range;
}

std::vector<StagePoint> SctEstimator::classify(
    const ScatterSet& scatter) const {
  auto analysis = analyze(scatter);
  if (!analysis) return {};
  const Analysis& a = *analysis;
  std::vector<StagePoint> points;
  points.reserve(a.buckets.size());
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    StagePoint p;
    p.q = a.buckets[i]->q;
    p.mean_throughput = a.buckets[i]->throughput.mean();
    p.smoothed_throughput = a.smoothed[i];
    p.mean_rt = a.buckets[i]->response_time.mean();
    p.samples = a.buckets[i]->throughput.count();
    if (i < a.lower_index) {
      p.stage = SctStage::kAscending;
    } else if (i <= a.upper_index) {
      p.stage = SctStage::kStable;
    } else {
      p.stage = SctStage::kDescending;
    }
    points.push_back(p);
  }
  return points;
}

}  // namespace conscale
