// LatencyBreakdown: per-server response-time distributions over a run.
// The end-to-end percentiles say *that* the system spiked; the breakdown
// says *where* — which tier's in-server response time (queueing included)
// carries the tail. Used by the reports and by diagnosis in the examples.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace conscale::topology {
class ServiceGraph;
}  // namespace conscale::topology

namespace conscale {

class Vm;

class LatencyBreakdown {
 public:
  /// Attaches RT recorders to every present and future server of `system`.
  explicit LatencyBreakdown(topology::ServiceGraph& system);

  struct ServerStats {
    std::string server;
    std::string tier;
    std::uint64_t completions = 0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
  };

  /// Snapshot for every server that completed at least one request,
  /// ordered by tier then server name.
  std::vector<ServerStats> snapshot() const;

  /// Tier-aggregated view (all replicas merged).
  std::vector<ServerStats> by_tier() const;

  /// Render as an aligned table.
  static std::string format(const std::vector<ServerStats>& rows);

 private:
  void attach(const std::string& tier, Vm& vm);

  struct Recorder {
    std::string tier;
    LogHistogram histogram;
  };
  // Stable addresses for the hook closures.
  std::map<std::string, std::unique_ptr<Recorder>> recorders_;
};

}  // namespace conscale
