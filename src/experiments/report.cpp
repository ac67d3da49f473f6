#include "experiments/report.h"

#include <cstdio>
#include <ostream>

#include "common/ascii_chart.h"
#include "common/csv.h"

namespace conscale {

namespace {

Series series_from_system(const std::vector<SystemSample>& samples,
                          const std::string& name, double (*field)(const SystemSample&)) {
  Series s;
  s.name = name;
  s.x.reserve(samples.size());
  s.y.reserve(samples.size());
  for (const auto& sample : samples) {
    s.x.push_back(sample.t);
    s.y.push_back(field(sample));
  }
  return s;
}

}  // namespace

void print_performance_timeline(std::ostream& out, const std::string& title,
                                const ScalingRunResult& result) {
  out << "== " << title << " ==\n";
  Series rt = series_from_system(result.system, "response time [ms]",
                                 [](const SystemSample& s) { return s.mean_rt * 1e3; });
  Series tp = series_from_system(result.system, "throughput [reqs/s]",
                                 [](const SystemSample& s) { return s.throughput; });
  ChartOptions rt_options;
  rt_options.x_label = "Timeline [s]";
  rt_options.y_label = "Response Time [ms]";
  rt_options.height = 14;
  out << render_lines({rt}, rt_options);
  ChartOptions tp_options;
  tp_options.x_label = "Timeline [s]";
  tp_options.y_label = "Throughput [reqs/s]";
  tp_options.height = 14;
  out << render_lines({tp}, tp_options);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %s on '%s': mean=%.0fms p50=%.0fms p95=%.0fms p99=%.0fms "
                "max=%.0fms completed=%llu\n",
                result.framework_name.c_str(), result.trace_name.c_str(),
                result.mean_rt_ms, result.p50_ms, result.p95_ms, result.p99_ms,
                result.max_rt_ms,
                static_cast<unsigned long long>(result.requests_completed));
  out << buf;
}

void print_scaling_timeline(std::ostream& out, const std::string& title,
                            const ScalingRunResult& result) {
  out << "== " << title << " ==\n";
  std::vector<Series> cpu_series;
  for (const auto& [tier, samples] : result.tiers) {
    Series s;
    s.name = tier + " CPU [%]";
    for (const auto& sample : samples) {
      s.x.push_back(sample.t);
      s.y.push_back(sample.avg_cpu_utilization * 100.0);
    }
    cpu_series.push_back(std::move(s));
  }
  Series vms = series_from_system(result.system, "# of VMs",
                                  [](const SystemSample& s) {
                                    return static_cast<double>(s.total_vms);
                                  });
  ChartOptions cpu_options;
  cpu_options.x_label = "Timeline [s]";
  cpu_options.y_label = "AVG CPU Util. [%]  (threshold 80)";
  cpu_options.y_max = 100.0;
  cpu_options.height = 14;
  out << render_lines(cpu_series, cpu_options);
  ChartOptions vm_options;
  vm_options.x_label = "Timeline [s]";
  vm_options.y_label = "Total number of VMs [#]";
  vm_options.height = 10;
  out << render_lines({vms}, vm_options);
}

void print_scatter_analysis(std::ostream& out, const std::string& title,
                            const ScatterRunResult& result) {
  out << "== " << title << " ==\n";
  Series points;
  points.name = "50ms samples (TP vs Q)";
  for (const auto& sample : result.raw_samples) {
    if (sample.concurrency < 0.5) continue;
    points.x.push_back(sample.concurrency);
    points.y.push_back(sample.throughput);
  }
  ChartOptions options;
  options.x_label = "Concurrency [#]";
  options.y_label = "Throughput [reqs/s]";
  options.height = 16;
  out << render_scatter(points, options);
  if (result.range) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  rational range [Q_lower=%d, Q_upper=%d], TPmax=%.0f/s, "
                  "optimal=%d, descending %s, %zu buckets / %zu samples\n",
                  result.range->q_lower, result.range->q_upper,
                  result.range->tp_max, result.range->optimal,
                  result.range->descending_observed ? "observed"
                                                    : "not observed",
                  result.range->buckets_used, result.range->samples_used);
    out << buf;
  } else {
    out << "  (not enough dense samples for an SCT estimate)\n";
  }
  if (!result.stages.empty()) {
    out << "  stages:";
    SctStage last = result.stages.front().stage;
    out << " [" << to_string(last) << " from Q=" << result.stages.front().q;
    for (const auto& p : result.stages) {
      if (p.stage != last) {
        out << "] [" << to_string(p.stage) << " from Q=" << p.q;
        last = p.stage;
      }
    }
    out << "]\n";
  }
}

void print_sweep(std::ostream& out, const std::string& title,
                 const std::vector<SweepPoint>& points) {
  out << "== " << title << " ==\n";
  Series tp, rt;
  tp.name = "Throughput";
  rt.name = "Response Time [ms]";
  for (const auto& p : points) {
    tp.x.push_back(p.concurrency);
    tp.y.push_back(p.throughput);
    rt.x.push_back(p.concurrency);
    rt.y.push_back(p.mean_rt_ms);
  }
  ChartOptions tp_options;
  tp_options.x_label = "Concurrency [#]";
  tp_options.y_label = "Throughput [requests/s]";
  tp_options.height = 12;
  out << render_lines({tp}, tp_options);
  ChartOptions rt_options;
  rt_options.x_label = "Concurrency [#]";
  rt_options.y_label = "Response Time [ms]";
  rt_options.height = 10;
  out << render_lines({rt}, rt_options);
  out << "  concurrency:";
  for (const auto& p : points) out << ' ' << p.concurrency;
  out << "\n  throughput: ";
  char buf[32];
  for (const auto& p : points) {
    std::snprintf(buf, sizeof(buf), " %.0f", p.throughput);
    out << buf;
  }
  out << "\n  rt[ms]:     ";
  for (const auto& p : points) {
    std::snprintf(buf, sizeof(buf), " %.1f", p.mean_rt_ms);
    out << buf;
  }
  out << '\n';
}

void print_tail_table(std::ostream& out, const std::string& title,
                      const std::vector<TailRow>& rows) {
  out << "== " << title << " ==\n";
  char buf[192];
  std::snprintf(buf, sizeof(buf), "  %-18s %-18s %10s %10s\n", "Framework",
                "Trace", "p95 [ms]", "p99 [ms]");
  out << buf;
  for (const auto& row : rows) {
    std::snprintf(buf, sizeof(buf), "  %-18s %-18s %10.0f %10.0f\n",
                  row.framework.c_str(), row.trace.c_str(), row.p95_ms,
                  row.p99_ms);
    out << buf;
  }
}

void print_events(std::ostream& out, const std::vector<ScalingEvent>& events) {
  out << "  scaling events:\n";
  char buf[160];
  for (const auto& e : events) {
    std::snprintf(buf, sizeof(buf), "    t=%6.1fs  %-8s %-10s %g\n", e.t,
                  e.tier.c_str(), e.action.c_str(), e.value);
    out << buf;
  }
}

void print_node_latency(std::ostream& out,
                        const std::vector<NodeLatency>& rows) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "  %-10s %-10s %12s %8s %8s %8s %8s %8s\n",
                "tier", "server", "completions", "mean", "p50", "p95", "p99",
                "max");
  out << buf;
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf),
                  "  %-10s %-10s %12llu %7.1f %7.1f %7.1f %7.1f %7.1f\n",
                  r.tier.c_str(), "*",
                  static_cast<unsigned long long>(r.completions), r.mean_ms,
                  r.p50_ms, r.p95_ms, r.p99_ms, r.max_ms);
    out << buf;
  }
}

void dump_system_csv(const std::string& path, const ScalingRunResult& result) {
  CsvWriter csv(path);
  csv.header({"t", "throughput_rps", "mean_rt_ms", "max_rt_ms", "total_vms"});
  for (const auto& s : result.system) {
    csv.row({s.t, s.throughput, s.mean_rt * 1e3, s.max_rt * 1e3,
             static_cast<double>(s.total_vms)});
  }
}

void dump_scatter_csv(const std::string& path, const ScatterRunResult& result) {
  CsvWriter csv(path);
  csv.header({"t", "concurrency", "throughput", "mean_rt_ms"});
  for (const auto& s : result.raw_samples) {
    csv.row({s.t_end, s.concurrency, s.throughput, s.mean_rt * 1e3});
  }
}

void dump_fault_windows_csv(const std::string& path,
                            const ScalingRunResult& result) {
  CsvWriter csv(path);
  csv.header({"kind", "start", "end", "tier"});
  for (const auto& w : result.fault_windows) {
    csv.raw_row({to_string(w.kind), format_cell(w.start), format_cell(w.end),
                 w.tier});
  }
}

void dump_counters_csv(const std::string& path,
                       const std::vector<ScalingRunResult>& results) {
  CsvWriter csv(path);
  csv.header({"controller", "trace", "counter", "value"});
  for (const auto& result : results) {
    for (const auto& [counter, value] : result.controller_counters) {
      csv.raw_row({result.framework_key, result.trace_name, counter,
                   std::to_string(value)});
    }
  }
}

}  // namespace conscale
