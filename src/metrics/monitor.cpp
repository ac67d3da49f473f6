#include "metrics/monitor.h"

#include <algorithm>

#include "common/time_units.h"
#include "topology/service_graph.h"

namespace conscale {

MonitoringAgent::MonitoringAgent(Simulation& sim,
                                 topology::ServiceGraph& system,
                                 MetricsWarehouse& warehouse, Params params)
    : sim_(sim), system_(system), warehouse_(warehouse), params_(params) {
  // The servers that exist now are wired at once, so their node-latency
  // rows hold every departure even when vm-ready reaches the monitor late
  // (one LAN hop on a tier cut); their 50 ms samples start at vm-ready.
  for (std::size_t i = 0; i < system_.tier_count(); ++i) {
    for (Vm* vm : system_.tier(i).all_vms()) wire(i, *vm);
  }
  system_.add_vm_ready_callback(
      [this](std::size_t tier_index, Vm& vm) { attach(tier_index, vm); });
  coarse_task_ = std::make_unique<PeriodicTask>(
      sim_, kCoarsePeriod, [this](SimTime now) { coarse_tick(now); });
}

MonitoringAgent::Attached& MonitoringAgent::wire(std::size_t tier_index,
                                                 Vm& vm) {
  auto [it, inserted] = servers_.try_emplace(vm.name());
  if (inserted) {
    // Each per-VM aggregator ticks on the sim hosting its tier — the run's
    // sim when serial, the tier's own lane when laned, so its samples land
    // in per-series warehouse vectors no other lane touches.
    it->second.tier_index = tier_index;
    it->second.aggregator = std::make_unique<IntervalAggregator>(
        system_.tier_sim(tier_index), vm.server(), params_.fine_period);
  }
  return it->second;
}

void MonitoringAgent::attach(std::size_t tier_index, Vm& vm) {
  Attached& server = wire(tier_index, vm);
  if (server.started) return;  // restarted VM
  server.started = true;
  // Intern the series once at attach; every 50 ms ingest is then an index.
  const MetricsWarehouse::SeriesId id = warehouse_.server_id(vm.name());
  server.aggregator->start([this, id](const IntervalSample& sample) {
    warehouse_.record_server(id, sample);
  });
}

std::uint64_t MonitoringAgent::hook_underflows() const {
  std::uint64_t total = 0;
  for (const auto& [name, server] : servers_) {
    total += server.aggregator->hook_underflows();
  }
  return total;
}

std::vector<NodeLatency> MonitoringAgent::node_latency() const {
  std::map<std::string, LogHistogram> merged;
  for (const auto& [name, server] : servers_) {
    merged[system_.tier(server.tier_index).name()].merge(
        server.aggregator->response_times());
  }
  std::vector<NodeLatency> rows;
  for (const auto& [tier, histogram] : merged) {
    if (histogram.total() == 0) continue;
    NodeLatency row;
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

void MonitoringAgent::on_client_completion(double rt) {
  ++window_completions_;
  window_rt_sum_ += rt;
  window_rt_max_ = std::max(window_rt_max_, rt);
}

void MonitoringAgent::on_client_rejection() {
  ++window_rejections_;
}

void MonitoringAgent::coarse_tick(SimTime now) {
  for (std::size_t i = 0; i < system_.tier_count(); ++i) {
    TierGroup& tier = system_.tier(i);
    if (tier_ids_.size() <= i) {
      tier_ids_.push_back(warehouse_.tier_id(tier.name()));
    }
    TierSample sample;
    sample.t = now;
    sample.avg_cpu_utilization = tier.poll_avg_cpu_utilization();
    sample.billed_vms = static_cast<std::uint32_t>(tier.billed_vms());
    sample.running_vms = static_cast<std::uint32_t>(tier.running_vms());
    warehouse_.record_tier(tier_ids_[i], sample);
  }
  SystemSample sys;
  sys.t = now;
  sys.throughput = static_cast<double>(window_completions_) / kCoarsePeriod;
  sys.mean_rt = window_completions_
                    ? window_rt_sum_ / static_cast<double>(window_completions_)
                    : 0.0;
  sys.max_rt = window_rt_max_;
  sys.total_vms = static_cast<std::uint32_t>(system_.total_billed_vms());
  sys.rejected = static_cast<std::uint32_t>(window_rejections_);
  warehouse_.record_system(sys);
  window_completions_ = 0;
  window_rejections_ = 0;
  window_rt_sum_ = 0.0;
  window_rt_max_ = 0.0;
}

}  // namespace conscale
