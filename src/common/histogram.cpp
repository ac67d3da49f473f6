#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace conscale {

LogHistogram::LogHistogram(double unit, std::size_t sub_buckets)
    : unit_(unit), sub_buckets_(sub_buckets) {
  if (unit <= 0.0 || sub_buckets == 0) {
    throw std::invalid_argument("LogHistogram: bad parameters");
  }
  // 64 powers of two cover any double we will see in practice.
  counts_.assign(64 * sub_buckets_, 0);
}

std::size_t LogHistogram::index_for(double value) const {
  if (value <= unit_) return 0;
  const double scaled = value / unit_;
  const int power = std::min(62, static_cast<int>(std::log2(scaled)));
  const double base = std::exp2(static_cast<double>(power));
  const double frac = (scaled - base) / base;  // [0,1) within the octave
  auto sub = static_cast<std::size_t>(frac * static_cast<double>(sub_buckets_));
  sub = std::min(sub, sub_buckets_ - 1);
  const std::size_t idx = static_cast<std::size_t>(power) * sub_buckets_ + sub;
  return std::min(idx, counts_.size() - 1);
}

double LogHistogram::value_for(std::size_t index) const {
  const std::size_t power = index / sub_buckets_;
  const std::size_t sub = index % sub_buckets_;
  const double base = std::exp2(static_cast<double>(power));
  const double frac =
      (static_cast<double>(sub) + 0.5) / static_cast<double>(sub_buckets_);
  return unit_ * base * (1.0 + frac);
}

void LogHistogram::add(double value, std::uint64_t count) {
  value = std::max(value, 0.0);
  counts_[index_for(value)] += count;
  total_ += count;
  sum_ += value * static_cast<double>(count);
  max_ = std::max(max_, value);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.unit_ != unit_ || other.sub_buckets_ != sub_buckets_) {
    throw std::invalid_argument("LogHistogram::merge: layout mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LogHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
  max_ = 0.0;
}

double LogHistogram::fraction_below(double threshold) const {
  if (total_ == 0) return 0.0;
  if (threshold < 0.0) return 0.0;
  const std::size_t limit = index_for(threshold);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i <= limit && i < counts_.size(); ++i) {
    below += counts_[i];
  }
  return static_cast<double>(below) / static_cast<double>(total_);
}

double LogHistogram::percentile(double pct) const {
  if (total_ == 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(pct / 100.0 * static_cast<double>(total_)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= target && counts_[i] > 0) {
      return std::min(value_for(i), max_);
    }
  }
  return max_;
}

}  // namespace conscale
