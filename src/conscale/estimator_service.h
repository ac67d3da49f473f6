// ConcurrencyEstimatorService: the Optimal Concurrency Estimator of Fig 8
// (step 2-3). Asynchronously (on its own refresh period, decoupled from the
// decision loop) it pulls the last `window` of fine-grained samples for
// every server of each monitored tier from the Metrics Warehouse, merges
// them per tier into a ScatterSet — replicas of a tier run identical
// software, so their {Q, TP} tuples describe the same curve — runs the SCT
// estimation, and caches the freshest rational range per tier. The Decision
// Controller reads the cache (the paper's "Historical Result" box) when it
// needs a recommendation.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "metrics/warehouse.h"
#include "sct/estimator.h"
#include "simcore/simulation.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale {

struct EstimatorServiceParams {
  SimDuration window = 180.0;   ///< §III-A: "short time window (e.g. 3 min)"
  SimDuration refresh = 5.0;    ///< asynchronous re-estimation period
  /// Exponential smoothing applied to successive per-tier estimates (the
  /// "Historical Result" box of Fig 8): blends the new q_lower/q_upper with
  /// the cached one so a single noisy window cannot yank the allocation.
  /// 1.0 = no smoothing (use the raw estimate).
  double smoothing = 0.5;
  /// Monitoring-dropout guard: when > 0, a tier whose newest fine-grained
  /// sample is older than this many seconds does not re-estimate — the
  /// cached range (learned from complete data) stays authoritative instead
  /// of being diluted by a half-empty window. 0 disables (fault-free
  /// default). Dropouts shorter than `window` still estimate as long as the
  /// newest surviving sample passes this bound.
  SimDuration max_staleness = 0.0;
};

class ConcurrencyEstimatorService {
 public:
  ConcurrencyEstimatorService(Simulation& sim, topology::ServiceGraph& system,
                              const MetricsWarehouse& warehouse,
                              EstimatorServiceParams params);

  /// Latest cached estimate for a tier, if any estimation has succeeded.
  std::optional<RationalRange> tier_estimate(
      const std::string& tier_name) const;

  /// Forces an immediate re-estimation of every tier (used right after a
  /// hardware scaling completes, when a fresh recommendation is needed).
  void refresh_now();

  /// Every estimate ever produced, for reporting.
  struct HistoryEntry {
    SimTime t = 0.0;
    std::string tier;
    RationalRange range;

    bool operator==(const HistoryEntry&) const = default;
  };
  const std::vector<HistoryEntry>& history() const { return history_; }

  /// Tier-refreshes skipped because the window was stale (dropout guard).
  std::uint64_t stale_skip_count() const { return stale_skips_; }

 private:
  void refresh(SimTime now);

  Simulation& sim_;
  topology::ServiceGraph& system_;
  const MetricsWarehouse& warehouse_;
  EstimatorServiceParams params_;
  SctEstimator estimator_;
  std::map<std::string, RationalRange> cache_;
  std::vector<HistoryEntry> history_;
  std::uint64_t stale_skips_ = 0;
  std::unique_ptr<PeriodicTask> refresh_task_;
};

}  // namespace conscale
