#include "metrics/shard_stats.h"

#include <algorithm>

namespace conscale {

ClientStats merge_shard_stats(
    const std::vector<std::unique_ptr<SessionShard>>& shards) {
  std::vector<const SessionShard*> ordered;
  ordered.reserve(shards.size());
  for (const auto& shard : shards) ordered.push_back(shard.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const SessionShard* a, const SessionShard* b) {
              return a->shard_index() < b->shard_index();
            });
  ClientStats stats;
  for (const SessionShard* shard : ordered) {
    stats.response_times.merge(shard->response_times());
    stats.requests_issued += shard->requests_issued();
    stats.requests_completed += shard->requests_completed();
    stats.requests_rejected += shard->requests_rejected();
  }
  return stats;
}

}  // namespace conscale
