// Statistics primitives shared by the metrics pipeline and the SCT model:
// streaming moments (Welford), percentiles, Welch's two-sample t-test (the
// statistical-intervention building block, after Malkowski et al. 2007),
// and simple smoothing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace conscale {

/// Streaming mean/variance accumulator (Welford's algorithm).
/// Numerically stable; O(1) per observation.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile (0..100) with linear interpolation between order statistics.
/// Selects on a copy; use LogHistogram for high-volume streaming cases.
double percentile(std::span<const double> values, double pct);

/// Result of Welch's unequal-variance t-test.
struct TTestResult {
  double t = 0.0;                ///< test statistic
  double degrees_freedom = 0.0;  ///< Welch-Satterthwaite approximation
  bool significant = false;      ///< |t| exceeds the critical value
};

/// Two-sample Welch t-test at (approximately) the 95% confidence level.
/// Used by the intervention analysis to decide whether throughput at one
/// concurrency level differs from throughput at another.
TTestResult welch_t_test(const RunningStats& a, const RunningStats& b);

/// Critical t value for a two-sided 5% test with `df` degrees of freedom
/// (piecewise table + asymptote; adequate for stage detection).
double t_critical_95(double df);

/// Centered moving average with window half-width `radius`; edges shrink the
/// window symmetrically. Returns an empty vector for empty input.
std::vector<double> moving_average(std::span<const double> values,
                                   std::size_t radius);

}  // namespace conscale
