// MetricsWarehouse: the framework's central metric store (Fig 8, step 1-2).
// Monitoring agents in each VM push application-level samples (50 ms
// {Q, TP, RT} tuples) and system-level samples (1 s CPU utilization, VM
// counts); the Decision Controller and the Optimal Concurrency Estimator
// pull from here. In the real system this is a TSDB; here an in-memory,
// append-only store with windowed queries.
//
// Hot-path design: series are identified by dense interned ids, not by
// string keys — a producer interns its name once at attach time and every
// 50 ms ingest after that is a vector index, not a map lookup. Windowed
// queries binary-search the append-ordered series and return a span over
// the stored samples (no copy); a returned span is invalidated by the next
// ingest into the same series (the estimator consumes it immediately).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time_units.h"
#include "metrics/interval.h"

namespace conscale {

/// 1 s system-level sample for one tier.
struct TierSample {
  SimTime t = 0.0;
  double avg_cpu_utilization = 0.0;  ///< [0,1] across running VMs
  std::uint32_t billed_vms = 0;
  std::uint32_t running_vms = 0;

  bool operator==(const TierSample&) const = default;
};

/// 1 s end-to-end sample (client-perceived).
struct SystemSample {
  SimTime t = 0.0;
  double throughput = 0.0;  ///< completed requests per second
  double mean_rt = 0.0;     ///< mean RT of completions in the second [s]
  double max_rt = 0.0;      ///< worst completion in the second [s]
  std::uint32_t total_vms = 0;
  std::uint32_t rejected = 0;  ///< requests shed by admission this second

  bool operator==(const SystemSample&) const = default;
};

class MetricsWarehouse {
 public:
  /// Dense series handle; valid until clear(). Interning the same name
  /// twice returns the same id.
  using SeriesId = std::uint32_t;

  // ---- interning (attach-time, not per-sample) ----
  SeriesId server_id(const std::string& server);
  SeriesId tier_id(const std::string& tier);

  // ---- ingestion ----
  void record_server(SeriesId id, const IntervalSample& sample);
  void record_tier(SeriesId id, const TierSample& sample);
  void record_system(const SystemSample& sample);
  /// String-keyed conveniences (cold paths, tests): intern + record.
  void record_server(const std::string& server, const IntervalSample& sample);
  void record_tier(const std::string& tier, const TierSample& sample);

  /// Monitoring dropout (fault injection): while disabled, every record_*
  /// call is counted and discarded — consumers see a widening gap between
  /// `now` and the newest stored sample, exactly like a crashed TSDB
  /// ingestion path. Queries still serve the pre-dropout series.
  void set_ingestion_enabled(bool enabled) { ingestion_enabled_ = enabled; }
  bool ingestion_enabled() const { return ingestion_enabled_; }
  std::uint64_t dropped_samples() const;

  // ---- full-series access (figure rendering) ----
  const std::vector<IntervalSample>& server_series(SeriesId id) const;
  const std::vector<IntervalSample>& server_series(
      const std::string& server) const;
  const std::vector<TierSample>& tier_series(SeriesId id) const;
  const std::vector<TierSample>& tier_series(const std::string& tier) const;
  const std::vector<SystemSample>& system_series() const { return system_; }
  /// All interned server names, sorted (stable across runs regardless of
  /// attach order).
  std::vector<std::string> server_names() const;

  // ---- windowed queries (estimator / controller) ----
  /// Server samples with t_end in (now - window, now], as a view over the
  /// stored series (samples are appended in time order, so the window is one
  /// contiguous range found by binary search). Invalidated by ingestion.
  std::span<const IntervalSample> server_window(SeriesId id,
                                                SimDuration window,
                                                SimTime now) const;
  std::span<const IntervalSample> server_window(const std::string& server,
                                                SimDuration window,
                                                SimTime now) const;
  /// Latest tier sample, or a default-constructed one if none.
  TierSample latest_tier(SeriesId id) const;
  TierSample latest_tier(const std::string& tier) const;

  /// Drops every sample AND every interned id (outstanding SeriesIds are
  /// invalidated).
  void clear();

 private:
  static SeriesId intern(const std::string& name,
                         std::unordered_map<std::string, SeriesId>& index,
                         std::vector<std::string>& names);

  // Determinism audit (DESIGN.md §8): both indexes are lookup-only — every
  // access is find/emplace/clear by key; ordered traversal always goes
  // through the SeriesId-indexed vectors below, so hash order can never
  // reach a result.
  std::unordered_map<std::string, SeriesId> server_index_;
  std::unordered_map<std::string, SeriesId> tier_index_;
  std::vector<std::string> server_names_;  ///< by SeriesId
  std::vector<std::string> tier_names_;    ///< by SeriesId
  std::vector<std::vector<IntervalSample>> servers_;  ///< by SeriesId
  std::vector<std::vector<TierSample>> tiers_;        ///< by SeriesId
  std::vector<SystemSample> system_;
  bool ingestion_enabled_ = true;
  std::uint64_t dropped_samples_ = 0;  ///< tier and system samples
  /// Dropped server samples by SeriesId. A server's samples arrive from the
  /// lane hosting it, so on a tier-laned run concurrent lanes drop into
  /// distinct counters, never into one shared count. Kept across clear().
  std::vector<std::uint64_t> server_drops_;
};

}  // namespace conscale
