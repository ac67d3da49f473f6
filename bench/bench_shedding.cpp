// Overload-with-shedding: the fan-out DAG driven at a multiple of the
// calibrated peak population, with and without entry-point admission
// control. Without shedding the closed-loop queues grow without bound and
// the served tail diverges; with the queue-age bound armed the system
// serves what it can at a bounded tail and reports the rest as rejected.
//
// The acceptance bar (ROADMAP topology item): at overload=2 the shedding
// run's served-request p99 stays within 2x of the fault-free ConScale p99
// at nominal load, on every trace where the no-shedding baseline diverges.
//
// Extra keys beyond the common set:
//   frameworks=a,b,...  controller-registry refs (default: every registered
//                       controller)
//   traces=N            first N trace kinds (CI smoke runs use traces=1)
//   overload=F          peak-population multiplier (default 2)
//   queue_limit=N       entry occupancy bound (default 40)
//   max_queue_age=S     queue-age bound in seconds, before work_scale
//                       compression (default 0.1; scaled by work_scale so
//                       compressed runs shed at the same relative point)
#include <cstdio>
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
  BenchEnv env = BenchEnv::from_args(
      argc, argv,
      {"traces", "frameworks", "overload", "queue_limit", "max_queue_age"});
  const Config config = Config::from_args(argc, argv);
  const long trace_limit = config.get_int("traces", 6);
  const std::vector<ControllerRef> frameworks = frameworks_from(
      config, "ec2,dcm,conscale,pi,fuzzy,vertical,holt-winters");
  const double overload = config.get_double("overload", 2.0);
  const long long queue_limit = config.get_int("queue_limit", 40);
  const double max_queue_age =
      config.get_double("max_queue_age", 0.1) * env.params.work_scale;
  banner("Service graph — overload with admission shedding",
         "2x the calibrated peak population on the fan-out DAG: without "
         "shedding every queue ages out; with the entry bound armed the "
         "served tail stays controlled and the overflow is reported as "
         "rejected, not buried in the histogram.");

  std::vector<TraceKind> traces = all_trace_kinds();
  if (trace_limit > 0 &&
      static_cast<std::size_t>(trace_limit) < traces.size()) {
    traces.resize(static_cast<std::size_t>(trace_limit));
  }

  // Nominal-load reference (fault-free ConScale): the yardstick the shed
  // runs are measured against.
  const GraphScenario nominal = make_fanout_scenario(env.params);
  ScenarioParams overloaded_params = env.params;
  overloaded_params.max_users *= overload;
  GraphScenario noshed = make_fanout_scenario(overloaded_params);
  GraphScenario shed = noshed;
  shed.graph.admission.enabled = true;
  shed.graph.admission.queue_limit =
      queue_limit > 0 ? static_cast<std::size_t>(queue_limit) : 0;
  shed.graph.admission.max_queue_age = max_queue_age;

  struct Cell {
    const GraphScenario* scenario;
    std::string variant;
    ControllerRef framework;
    TraceKind trace;
  };
  std::vector<Cell> cells;
  for (TraceKind trace : traces) {
    cells.push_back({&nominal, "nominal", ControllerRef{"conscale", {}},
                     trace});
  }
  for (const ControllerRef& framework : frameworks) {
    for (TraceKind trace : traces) {
      cells.push_back({&noshed, "noshed", framework, trace});
      cells.push_back({&shed, "shed", framework, trace});
    }
  }
  std::cout << "  grid: " << traces.size() << " nominal + "
            << frameworks.size() << " frameworks x " << traces.size()
            << " traces x {noshed, shed} = " << cells.size() << " runs\n";

  const std::vector<GraphRunResult> results = env.map<GraphRunResult>(
      cells.size(), [&](std::size_t i) {
        return run_graph_scaling(*cells[i].scenario, cells[i].trace,
                                 to_string(cells[i].framework),
                                 env.scaling_options());
      });

  // Index the nominal references by trace order.
  std::vector<double> nominal_p99(traces.size());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    nominal_p99[t] = results[t].run.p99_ms;
  }

  std::cout << "\n  served-request p99 [ms] at overload="
            << format_cell(overload)
            << " (reference: fault-free ConScale at nominal load):\n"
            << "    framework            trace             nominal    "
               "noshed      shed  shed/nom  shed_ratio\n";
  std::size_t index = traces.size();
  std::size_t bounded = 0;
  std::size_t divergent = 0;
  for (std::size_t f = 0; f < frameworks.size(); ++f) {
    for (std::size_t t = 0; t < traces.size(); ++t) {
      const GraphRunResult& no = results[index++];
      const GraphRunResult& yes = results[index++];
      const double rel = yes.run.p99_ms / nominal_p99[t];
      const double issued =
          static_cast<double>(yes.run.requests_issued);
      const double shed_ratio =
          issued > 0.0 ? yes.run.requests_rejected / issued : 0.0;
      if (no.run.p99_ms > 2.0 * nominal_p99[t]) ++divergent;
      if (yes.run.p99_ms < 2.0 * nominal_p99[t]) ++bounded;
      std::printf("    %-20s %-16s %8.1f  %8.1f  %8.1f  %8.2f  %9.3f\n",
                  yes.run.framework_name.c_str(),
                  yes.run.trace_name.c_str(), nominal_p99[t],
                  no.run.p99_ms, yes.run.p99_ms, rel, shed_ratio);
    }
  }
  std::cout << "\n  summary: " << divergent << "/"
            << frameworks.size() * traces.size()
            << " no-shedding runs diverged (p99 > 2x nominal); " << bounded
            << "/" << frameworks.size() * traces.size()
            << " shedding runs stayed within 2x nominal p99\n";

  if (!env.csv_dir.empty()) {
    CsvWriter csv(env.csv_dir + "/shedding.csv");
    csv.header({"variant", "framework", "trace", "p95_ms", "p99_ms",
                "sla_500ms", "issued", "completed", "rejected",
                "rejected_occupancy", "rejected_age"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const GraphRunResult& r = results[i];
      csv.raw_row({cells[i].variant, r.run.framework_key, r.run.trace_name,
                   format_cell(r.run.p95_ms), format_cell(r.run.p99_ms),
                   format_cell(r.run.sla_500ms),
                   std::to_string(r.run.requests_issued),
                   std::to_string(r.run.requests_completed),
                   std::to_string(r.run.requests_rejected),
                   std::to_string(r.admission.rejected_occupancy),
                   std::to_string(r.admission.rejected_age)});
    }
    std::cout << "  (summary written to " << env.csv_dir
              << "/shedding.csv)\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].trace != TraceKind::kLargeVariations ||
          cells[i].framework.name != "conscale") {
        continue;
      }
      dump_graph_system_csv(
          env.csv_dir + "/shedding_" + cells[i].variant + ".csv",
          results[i]);
    }
  }

  paper_note("No paper counterpart: the paper scales out of overload; this "
             "bench adds the regime where capacity cannot arrive in time "
             "and load must be shed to keep the served tail bounded.");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
