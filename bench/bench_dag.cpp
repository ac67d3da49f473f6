// Service-graph evaluation: the fan-out DAG (Gateway -> {SvcA || SvcB} ->
// SharedDB, experiments/graph_scenario.h) driven by the six bursty traces
// under every registered controller. The chain benches answer "can the
// framework hold the tail on a pipeline"; this one asks the same question
// when a stage fans out in parallel, joins on all replies, and two
// independently scaled services meet at one shared backend.
//
// Extra keys beyond the common set:
//   frameworks=a,b,...  controller-registry refs (default: every registered
//                       controller)
//   traces=N            first N trace kinds (CI smoke runs use traces=1)
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/csv.h"
#include "experiments/graph_runner.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  if (list_controllers_requested(argc, argv)) {
    print_controller_list(std::cout);
    return 0;
  }
  BenchEnv env = BenchEnv::from_args(argc, argv, {"traces", "frameworks"});
  const Config config = Config::from_args(argc, argv);
  const long trace_limit = config.get_int("traces", 6);
  const std::vector<ControllerRef> frameworks = frameworks_from(
      config, "ec2,dcm,conscale,pi,fuzzy,vertical,holt-winters");
  banner("Service graph — fan-out DAG with a shared backend",
         "Topology generalization beyond the paper: per-node SCT control on "
         "a DAG whose parallel branches join on all replies and share a "
         "database (DESIGN.md §Service graphs).");

  std::vector<TraceKind> traces = all_trace_kinds();
  if (trace_limit > 0 &&
      static_cast<std::size_t>(trace_limit) < traces.size()) {
    traces.resize(static_cast<std::size_t>(trace_limit));
  }

  const GraphScenario scenario = make_fanout_scenario(env.params);
  const ControllerRegistry& registry = ControllerRegistry::global();

  struct Cell {
    ControllerRef framework;
    TraceKind trace;
    std::string label;
  };
  std::vector<Cell> cells;
  for (const ControllerRef& framework : frameworks) {
    for (TraceKind trace : traces) {
      cells.push_back({framework, trace,
                       registry.at(framework.name).display_name + "/" +
                           to_string(trace)});
    }
  }
  std::cout << "  grid: " << frameworks.size() << " frameworks x "
            << traces.size() << " traces = " << cells.size() << " runs\n";

  const std::vector<GraphRunResult> results = env.map<GraphRunResult>(
      cells.size(), [&](std::size_t i) {
        return run_graph_scaling(scenario, cells[i].trace,
                                 to_string(cells[i].framework),
                                 env.scaling_options());
      });

  std::size_t index = 0;
  for (const ControllerRef& framework : frameworks) {
    (void)framework;
    std::vector<TailRow> rows;
    for (std::size_t t = 0; t < traces.size(); ++t) {
      const ScalingRunResult& r = results[index++].run;
      rows.push_back({r.framework_name, r.trace_name, r.p95_ms, r.p99_ms});
    }
    print_tail_table(std::cout, "fanout3 — " + rows.front().framework, rows);
  }

  // Where does the tail live? Per-node in-server latency for the flagship
  // trace under each controller — on this topology the shared DB inherits
  // cross-traffic no single parent's estimator sees alone.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].trace != TraceKind::kLargeVariations) continue;
    std::cout << "\n  per-node latency (" << cells[i].label << "):\n";
    print_node_latency(std::cout, results[i].node_latency);
  }

  if (!env.csv_dir.empty()) {
    CsvWriter csv(env.csv_dir + "/dag_summary.csv");
    csv.header({"framework", "trace", "p95_ms", "p99_ms", "sla_500ms",
                "completed", "total_vm_seconds"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const ScalingRunResult& r = results[i].run;
      double vm_seconds = 0.0;
      for (const SystemSample& s : r.system) vm_seconds += s.total_vms;
      csv.raw_row({r.framework_key, r.trace_name, format_cell(r.p95_ms),
                   format_cell(r.p99_ms), format_cell(r.sla_500ms),
                   std::to_string(r.requests_completed),
                   format_cell(vm_seconds)});
    }
    std::cout << "  (summary written to " << env.csv_dir
              << "/dag_summary.csv)\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].trace != TraceKind::kLargeVariations) continue;
      const std::string stem = "dag_" + cells[i].framework.name;
      dump_graph_system_csv(env.csv_dir + "/" + stem + ".csv", results[i]);
      dump_node_latency_csv(env.csv_dir + "/" + stem + "_nodes.csv",
                            results[i]);
    }
    std::cout << "  (flagship timelines + node breakdowns written to "
              << env.csv_dir << "/dag_*.csv)\n";
  }

  paper_note("No paper counterpart: the paper evaluates a linear chain; "
             "this grid extends Table I to a DAG topology (per-node SCT "
             "wiring in experiments/graph_scenario.cpp).");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
