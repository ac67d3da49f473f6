#include "metrics/warehouse.h"

#include <algorithm>
#include <cassert>

namespace conscale {

namespace {
const std::vector<IntervalSample> kEmptyIntervalSeries;
const std::vector<TierSample> kEmptyTierSeries;
}  // namespace

MetricsWarehouse::SeriesId MetricsWarehouse::intern(
    const std::string& name,
    std::unordered_map<std::string, SeriesId>& index,
    std::vector<std::string>& names) {
  auto [it, inserted] =
      index.emplace(name, static_cast<SeriesId>(names.size()));
  if (inserted) names.push_back(name);
  return it->second;
}

MetricsWarehouse::SeriesId MetricsWarehouse::server_id(
    const std::string& server) {
  const SeriesId id = intern(server, server_index_, server_names_);
  if (id >= servers_.size()) servers_.resize(id + 1);
  if (id >= server_drops_.size()) server_drops_.resize(id + 1);
  return id;
}

MetricsWarehouse::SeriesId MetricsWarehouse::tier_id(const std::string& tier) {
  const SeriesId id = intern(tier, tier_index_, tier_names_);
  if (id >= tiers_.size()) tiers_.resize(id + 1);
  return id;
}

void MetricsWarehouse::record_server(SeriesId id,
                                     const IntervalSample& sample) {
  assert(id < servers_.size());
  if (!ingestion_enabled_) {
    ++server_drops_[id];
    return;
  }
  servers_[id].push_back(sample);
}

std::uint64_t MetricsWarehouse::dropped_samples() const {
  std::uint64_t total = dropped_samples_;
  for (const std::uint64_t drops : server_drops_) total += drops;
  return total;
}

void MetricsWarehouse::record_tier(SeriesId id, const TierSample& sample) {
  assert(id < tiers_.size());
  if (!ingestion_enabled_) {
    ++dropped_samples_;
    return;
  }
  tiers_[id].push_back(sample);
}

void MetricsWarehouse::record_server(const std::string& server,
                                     const IntervalSample& sample) {
  record_server(server_id(server), sample);
}

void MetricsWarehouse::record_tier(const std::string& tier,
                                   const TierSample& sample) {
  record_tier(tier_id(tier), sample);
}

void MetricsWarehouse::record_system(const SystemSample& sample) {
  if (!ingestion_enabled_) {
    ++dropped_samples_;
    return;
  }
  system_.push_back(sample);
}

const std::vector<IntervalSample>& MetricsWarehouse::server_series(
    SeriesId id) const {
  return id < servers_.size() ? servers_[id] : kEmptyIntervalSeries;
}

const std::vector<IntervalSample>& MetricsWarehouse::server_series(
    const std::string& server) const {
  auto it = server_index_.find(server);
  return it == server_index_.end() ? kEmptyIntervalSeries
                                   : server_series(it->second);
}

const std::vector<TierSample>& MetricsWarehouse::tier_series(
    SeriesId id) const {
  return id < tiers_.size() ? tiers_[id] : kEmptyTierSeries;
}

const std::vector<TierSample>& MetricsWarehouse::tier_series(
    const std::string& tier) const {
  auto it = tier_index_.find(tier);
  return it == tier_index_.end() ? kEmptyTierSeries : tier_series(it->second);
}

std::vector<std::string> MetricsWarehouse::server_names() const {
  std::vector<std::string> names = server_names_;
  std::sort(names.begin(), names.end());
  return names;
}

std::span<const IntervalSample> MetricsWarehouse::server_window(
    SeriesId id, SimDuration window, SimTime now) const {
  const auto& series = server_series(id);
  const SimTime cutoff = now - window;
  // Series are appended in time order; binary-search both window edges.
  auto first = std::lower_bound(
      series.begin(), series.end(), cutoff,
      [](const IntervalSample& s, SimTime t) { return s.t_end <= t; });
  auto last = std::upper_bound(
      first, series.end(), now,
      [](SimTime t, const IntervalSample& s) { return t < s.t_end; });
  return {first, last};
}

std::span<const IntervalSample> MetricsWarehouse::server_window(
    const std::string& server, SimDuration window, SimTime now) const {
  auto it = server_index_.find(server);
  if (it == server_index_.end()) return {};
  return server_window(it->second, window, now);
}

TierSample MetricsWarehouse::latest_tier(SeriesId id) const {
  const auto& series = tier_series(id);
  return series.empty() ? TierSample{} : series.back();
}

TierSample MetricsWarehouse::latest_tier(const std::string& tier) const {
  auto it = tier_index_.find(tier);
  return it == tier_index_.end() ? TierSample{} : latest_tier(it->second);
}

void MetricsWarehouse::clear() {
  server_index_.clear();
  tier_index_.clear();
  server_names_.clear();
  tier_names_.clear();
  servers_.clear();
  tiers_.clear();
  system_.clear();
}

}  // namespace conscale
