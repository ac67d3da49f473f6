// SctEstimator: the Estimation phase of the Scatter-Concurrency-Throughput
// model (§III-A, Fig 4). Given the bucketed {Q, TP, RT} statistics it
// recovers the three stages of the concurrency-throughput relation and the
// rational concurrency range [Q_lower, Q_upper]:
//
//   Q_lower  minimum concurrency whose throughput is statistically
//            indistinguishable from the peak (start of the Stable Stage)
//   Q_upper  maximum such concurrency (end of the Stable Stage)
//
// Stage membership is decided by statistical intervention analysis in the
// spirit of Malkowski et al. 2007: a bucket belongs to the stable stage if
// either its smoothed mean throughput is within the plateau tolerance of the
// peak, or a Welch two-sample t-test cannot distinguish it from the peak
// bucket. The paper picks Q_lower as the *optimal* setting because, inside
// the stable stage, lower concurrency means lower response time (Fig 6).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sct/scatter.h"

namespace conscale {

enum class SctStage { kAscending, kStable, kDescending };

std::string to_string(SctStage stage);

struct SctParams {
  /// δ: a bucket within (1-δ)·TP_max of the peak is plateau by definition.
  double plateau_tolerance = 0.05;
  /// Optional response-time SLA (seconds; 0 disables). Fig 6(b) draws a
  /// latency threshold across the RT-vs-Q scatter: within the stable stage,
  /// RT still grows with Q, so when an SLA is set the *optimal* setting is
  /// the largest plateau level whose mean in-server RT stays within it
  /// (never below Q_lower — throughput comes first, as in the paper).
  double rt_sla = 0.0;
};

struct RationalRange {
  int q_lower = 0;
  int q_upper = 0;
  double tp_max = 0.0;       ///< smoothed peak throughput [req/s]
  int optimal = 0;           ///< = q_lower (§III-A)
  /// True when the descending stage was actually observed; false means the
  /// window never pushed concurrency beyond the plateau, so q_upper is
  /// right-censored at the largest observed level.
  bool descending_observed = false;
  /// True when q_upper is merely where contiguous observations stop (the
  /// next concurrency level up is unobserved or sparse), rather than a
  /// measured knee-top. A bursty window often contains the ascending range
  /// and a deeply degraded blob pinned at the old allocation with nothing
  /// in between: descending is observed, but the plateau's right edge is
  /// still unknown. Policies should not treat a censored q_upper as a hard
  /// ceiling.
  bool q_upper_censored = false;
  std::size_t buckets_used = 0;
  std::size_t samples_used = 0;

  bool operator==(const RationalRange&) const = default;
};

/// Per-bucket stage labels, for reporting/plots (Fig 6a's three states).
struct StagePoint {
  int q = 0;
  double mean_throughput = 0.0;
  double smoothed_throughput = 0.0;
  double mean_rt = 0.0;
  std::size_t samples = 0;
  SctStage stage = SctStage::kAscending;
};

class SctEstimator {
 public:
  explicit SctEstimator(SctParams params = {}) : params_(params) {}

  /// Returns the rational range, or nullopt when the window does not hold
  /// enough dense buckets (the framework then keeps the previous setting).
  std::optional<RationalRange> estimate(const ScatterSet& scatter) const;

  /// Stage classification of every dense bucket (empty if underpopulated).
  std::vector<StagePoint> classify(const ScatterSet& scatter) const;

 private:
  struct Analysis {
    /// View into the ScatterSet's dense-bucket scratch; valid for the
    /// duration of one estimate()/classify() call.
    std::span<const ConcurrencyBucket* const> buckets;
    std::vector<double> smoothed;
    std::size_t peak_index = 0;
    double tp_max = 0.0;
    std::size_t lower_index = 0;
    std::size_t upper_index = 0;
  };
  std::optional<Analysis> analyze(const ScatterSet& scatter) const;
  bool at_peak(const ConcurrencyBucket& bucket, const ConcurrencyBucket& peak,
               double smoothed_value, double tp_max) const;

  SctParams params_;
};

}  // namespace conscale
