#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace conscale {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::span<const double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::vector<double> values(samples.begin(), samples.end());
  pct = std::clamp(pct, 0.0, 100.0);
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(lo),
                   values.end());
  const double v_lo = values[lo];
  if (hi == lo || frac == 0.0) return v_lo;
  const double v_hi =
      *std::min_element(values.begin() + static_cast<long>(lo) + 1,
                        values.end());
  return v_lo + frac * (v_hi - v_lo);
}

double t_critical_95(double df) {
  // Two-sided 95% critical values; interpolation keeps the stage detector
  // smooth for the small bucket counts the 3-minute SCT window produces.
  struct Entry {
    double df;
    double t;
  };
  static constexpr Entry kTable[] = {
      {1, 12.706}, {2, 4.303}, {3, 3.182},  {4, 2.776},  {5, 2.571},
      {6, 2.447},  {7, 2.365}, {8, 2.306},  {9, 2.262},  {10, 2.228},
      {12, 2.179}, {15, 2.131}, {20, 2.086}, {25, 2.060}, {30, 2.042},
      {40, 2.021}, {60, 2.000}, {120, 1.980}};
  if (df <= kTable[0].df) return kTable[0].t;
  for (std::size_t i = 1; i < std::size(kTable); ++i) {
    if (df <= kTable[i].df) {
      const auto& a = kTable[i - 1];
      const auto& b = kTable[i];
      const double frac = (df - a.df) / (b.df - a.df);
      return a.t + frac * (b.t - a.t);
    }
  }
  return 1.96;
}

TTestResult welch_t_test(const RunningStats& a, const RunningStats& b) {
  TTestResult result;
  if (a.count() < 2 || b.count() < 2) return result;
  const double va = a.variance() / static_cast<double>(a.count());
  const double vb = b.variance() / static_cast<double>(b.count());
  const double denom = std::sqrt(va + vb);
  if (denom <= 0.0) {
    // Zero variance in both samples: significant iff the means differ.
    result.t = (a.mean() == b.mean()) ? 0.0 : 1e9;
    result.degrees_freedom = static_cast<double>(a.count() + b.count() - 2);
    result.significant = a.mean() != b.mean();
    return result;
  }
  result.t = (a.mean() - b.mean()) / denom;
  const double num = (va + vb) * (va + vb);
  const double den = va * va / static_cast<double>(a.count() - 1) +
                     vb * vb / static_cast<double>(b.count() - 1);
  result.degrees_freedom = den > 0.0 ? num / den : 1.0;
  result.significant =
      std::abs(result.t) > t_critical_95(result.degrees_freedom);
  return result;
}

std::vector<double> moving_average(std::span<const double> values,
                                   std::size_t radius) {
  std::vector<double> out;
  out.reserve(values.size());
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Shrink the window near the edges so it stays centered.
    const std::size_t left_room = i;
    const std::size_t right_room = n - 1 - i;
    const std::size_t r = std::min({radius, left_room, right_room});
    double sum = 0.0;
    for (std::size_t j = i - r; j <= i + r; ++j) sum += values[j];
    out.push_back(sum / static_cast<double>(2 * r + 1));
  }
  return out;
}

}  // namespace conscale
