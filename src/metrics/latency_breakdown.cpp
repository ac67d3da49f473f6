#include "metrics/latency_breakdown.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/time_units.h"
#include "topology/service_graph.h"

namespace conscale {

LatencyBreakdown::LatencyBreakdown(topology::ServiceGraph& system) {
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    TierGroup& tier = system.tier(i);
    for (Vm* vm : tier.all_vms()) attach(tier.name(), *vm);
  }
  system.add_vm_ready_callback([this, &system](std::size_t tier_index,
                                               Vm& vm) {
    attach(system.tier(tier_index).name(), vm);
  });
}

void LatencyBreakdown::attach(const std::string& tier, Vm& vm) {
  if (recorders_.count(vm.name())) return;
  auto recorder = std::make_unique<Recorder>();
  recorder->tier = tier;
  Recorder* raw = recorder.get();
  Server::Hooks hooks;
  hooks.on_departed = [raw](SimTime, double rt) { raw->histogram.add(rt); };
  vm.server().add_hooks(std::move(hooks));
  recorders_.emplace(vm.name(), std::move(recorder));
}

std::vector<LatencyBreakdown::ServerStats> LatencyBreakdown::snapshot() const {
  std::vector<ServerStats> rows;
  for (const auto& [name, recorder] : recorders_) {
    if (recorder->histogram.total() == 0) continue;
    ServerStats row;
    row.server = name;
    row.tier = recorder->tier;
    row.completions = recorder->histogram.total();
    row.mean_ms = to_ms(recorder->histogram.mean());
    row.p50_ms = to_ms(recorder->histogram.percentile(50.0));
    row.p95_ms = to_ms(recorder->histogram.percentile(95.0));
    row.p99_ms = to_ms(recorder->histogram.percentile(99.0));
    row.max_ms = to_ms(recorder->histogram.max_recorded());
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const ServerStats& a, const ServerStats& b) {
              return a.tier != b.tier ? a.tier < b.tier
                                      : a.server < b.server;
            });
  return rows;
}

std::vector<LatencyBreakdown::ServerStats> LatencyBreakdown::by_tier() const {
  std::map<std::string, LogHistogram> merged;
  for (const auto& [name, recorder] : recorders_) {
    auto [it, inserted] = merged.try_emplace(recorder->tier);
    it->second.merge(recorder->histogram);
  }
  std::vector<ServerStats> rows;
  for (const auto& [tier, histogram] : merged) {
    if (histogram.total() == 0) continue;
    ServerStats row;
    row.server = "*";
    row.tier = tier;
    row.completions = histogram.total();
    row.mean_ms = to_ms(histogram.mean());
    row.p50_ms = to_ms(histogram.percentile(50.0));
    row.p95_ms = to_ms(histogram.percentile(95.0));
    row.p99_ms = to_ms(histogram.percentile(99.0));
    row.max_ms = to_ms(histogram.max_recorded());
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string LatencyBreakdown::format(const std::vector<ServerStats>& rows) {
  std::ostringstream out;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "  %-10s %-10s %12s %8s %8s %8s %8s %8s\n",
                "tier", "server", "completions", "mean", "p50", "p95", "p99",
                "max");
  out << buf;
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf),
                  "  %-10s %-10s %12llu %7.1f %7.1f %7.1f %7.1f %7.1f\n",
                  r.tier.c_str(), r.server.c_str(),
                  static_cast<unsigned long long>(r.completions), r.mean_ms,
                  r.p50_ms, r.p95_ms, r.p99_ms, r.max_ms);
    out << buf;
  }
  return out.str();
}

}  // namespace conscale
