// Histogram for high-volume latency recording: LogHistogram, exponentially
// sized buckets (HdrHistogram-style, base-2 with linear sub-buckets), used
// for tail-latency percentiles over full runs where storing every sample
// would be wasteful.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace conscale {

/// Log-scale histogram for non-negative values with bounded relative error
/// (~1/subbuckets). Suitable for latencies spanning microseconds to minutes.
class LogHistogram {
 public:
  /// `unit` is the smallest resolvable value (e.g. 1e-4 s = 0.1 ms);
  /// `sub_buckets` controls relative precision per power of two.
  explicit LogHistogram(double unit = 1e-4, std::size_t sub_buckets = 32);

  void add(double value, std::uint64_t count = 1);
  void merge(const LogHistogram& other);
  void reset();

  std::uint64_t total() const { return total_; }
  double percentile(double pct) const;
  double mean() const { return total_ ? sum_ / static_cast<double>(total_) : 0.0; }
  double max_recorded() const { return max_; }
  /// Fraction of recorded values <= `threshold` (SLA attainment); 0 when
  /// empty. Resolution is the bucket width at the threshold (~3%).
  double fraction_below(double threshold) const;

 private:
  std::size_t index_for(double value) const;
  double value_for(std::size_t index) const;

  double unit_;
  std::size_t sub_buckets_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace conscale
