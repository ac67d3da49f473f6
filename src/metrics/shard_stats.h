// Ordered merge of per-shard client statistics (DESIGN.md §6.6).
//
// Each SessionShard accumulates its own response-time histogram and request
// counters on its own lane — no shared metrics state ever crosses a lane
// boundary during a run. After LaneEngine::run returns, the laned runners
// fold the shards into one ClientStats in *shard-index order*. The order
// matters only for bit-level reproducibility of the merged histogram
// (LogHistogram::merge adds bucket counts, and integer addition is
// commutative, but max_recorded tracking and any future floating
// accumulators are safest folded in one canonical order); it costs nothing
// and keeps the merge independent of lane placement.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "workload/session_shard.h"

namespace conscale {

/// Whole-population client statistics, shaped like ClientPopulation's
/// accessors so ScalingRunResult extraction is identical for both paths.
struct ClientStats {
  LogHistogram response_times;
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_rejected = 0;
};

/// Folds `shards` in shard-index order regardless of the vector's order.
ClientStats merge_shard_stats(
    const std::vector<std::unique_ptr<SessionShard>>& shards);

}  // namespace conscale
