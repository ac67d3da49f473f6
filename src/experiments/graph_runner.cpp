#include "experiments/graph_runner.h"

#include "common/csv.h"
#include "experiments/run_assembly.h"

namespace conscale {

GraphRunResult run_graph_scaling(const GraphScenario& scenario,
                                 TraceKind kind,
                                 const std::string& framework_ref,
                                 const ScalingRunOptions& options) {
  return run_graph_scaling(
      scenario, make_run_trace(scenario.base, kind, options.duration),
      framework_ref, options);
}

GraphRunResult run_graph_scaling(const GraphScenario& scenario,
                                 const WorkloadTrace& trace,
                                 const std::string& framework_ref,
                                 const ScalingRunOptions& options) {
  return assemble_run(scenario, trace, framework_ref, options);
}

void dump_graph_system_csv(const std::string& path,
                           const GraphRunResult& result) {
  CsvWriter csv(path);
  csv.header({"t", "throughput_rps", "mean_rt_ms", "max_rt_ms", "total_vms",
              "rejected"});
  for (const auto& s : result.run.system) {
    csv.row({s.t, s.throughput, s.mean_rt * 1e3, s.max_rt * 1e3,
             static_cast<double>(s.total_vms),
             static_cast<double>(s.rejected)});
  }
}

void dump_node_latency_csv(const std::string& path,
                           const GraphRunResult& result) {
  CsvWriter csv(path);
  csv.header({"node", "completions", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
              "max_ms"});
  for (const auto& row : result.node_latency) {
    csv.raw_row({row.tier, std::to_string(row.completions),
                 format_cell(row.mean_ms), format_cell(row.p50_ms),
                 format_cell(row.p95_ms), format_cell(row.p99_ms),
                 format_cell(row.max_ms)});
  }
}

}  // namespace conscale
