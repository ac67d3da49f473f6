// Controller zoo: the Table-I grid (tail latency across the six paper
// traces) extended to every registered controller — the three paper
// frameworks plus the five literature-grounded zoo controllers (PI-RT,
// Fuzzy-RT, Vertical-Robust, HoltWinters-Pred, and Hybrid-PredSCT, the
// forecast with ConScale's soft loop attached). One table answers "how does
// a <paradigm> autoscaler behave on the paper's workloads?" for each
// controller paradigm the registry knows about.
//
// Extra keys beyond the common set:
//   frameworks=  controller-registry references (default: every shipped
//                controller); unknown names abort with the registered list
//   traces=N     limit the grid to the first N trace kinds (CI smoke)
// `--list-controllers` prints the registry and exits.
#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "common/csv.h"

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
      config, "ec2,dcm,conscale,pi,fuzzy,vertical,holt-winters,hybrid");
  banner("Controller zoo — every registered controller, six traces",
         "Beyond the paper: reactive (ec2), offline-profiled (dcm), online "
         "SCT (conscale), RT-feedback (pi, fuzzy), vertical (vertical), "
         "predictive (holt-winters) and forecast+SCT (hybrid) paradigms on "
         "the Table-I grid.");

  std::vector<TraceKind> traces = all_trace_kinds();
  if (trace_limit > 0 &&
      static_cast<std::size_t>(trace_limit) < traces.size()) {
    traces.resize(static_cast<std::size_t>(trace_limit));
  }

  ScalingRunOptions options = env.scaling_options();
  ScalingRunOptions dcm_options = options;
  if (std::any_of(frameworks.begin(), frameworks.end(),
                  [](const ControllerRef& ref) { return ref.name == "dcm"; })) {
    std::cout << "  training DCM offline...\n";
    FrameworkConfig dcm_config = make_framework_config();
    dcm_config.dcm_profile = train_dcm_profile(env.params);
    dcm_options.framework_config = dcm_config;
  }

  // Frameworks vary fastest.
  const std::size_t runs = traces.size() * frameworks.size();
  std::cout << "  grid: " << frameworks.size() << " controllers x "
            << traces.size() << " traces = " << runs << " runs\n";
  const std::vector<ScalingRunResult> results = env.map<ScalingRunResult>(
      runs, [&](std::size_t i) {
        const ControllerRef& framework = frameworks[i % frameworks.size()];
        return run_scaling(env.params, traces[i / frameworks.size()],
                           to_string(framework),
                           framework.name == "dcm" ? dcm_options : options);
      });

  std::vector<TailRow> rows;
  std::vector<double> worst_p99(frameworks.size(), 0.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScalingRunResult& result = results[i];
    rows.push_back({result.framework_name, result.trace_name, result.p95_ms,
                    result.p99_ms});
    worst_p99[i % frameworks.size()] =
        std::max(worst_p99[i % frameworks.size()], result.p99_ms);
  }
  print_tail_table(std::cout, "Controller zoo (measured)", rows);

  std::cout << "\n  worst-case p99 by controller [ms]:\n";
  for (std::size_t f = 0; f < frameworks.size(); ++f) {
    std::cout << "    " << results[f].framework_name << "="
              << static_cast<int>(worst_p99[f]) << "\n";
  }

  // Predictive-vs-reactive headline: on the ramp traces the Holt-Winters
  // forecaster should have capacity booted *before* the ramp lands, where
  // the reactive threshold rule pays the VM preparation delay in p99.
  const auto find_p99 = [&](const std::string& key,
                            TraceKind kind) -> const ScalingRunResult* {
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].framework_key == key &&
          traces[i / frameworks.size()] == kind) {
        return &results[i];
      }
    }
    return nullptr;
  };
  for (TraceKind ramp : {TraceKind::kDualPhase, TraceKind::kSteepTriPhase}) {
    const ScalingRunResult* predictive = find_p99("holt-winters", ramp);
    const ScalingRunResult* reactive = find_p99("ec2", ramp);
    if (predictive == nullptr || reactive == nullptr) continue;
    std::cout << "  predictive vs reactive on " << predictive->trace_name
              << ": " << predictive->framework_name << " p99="
              << static_cast<int>(predictive->p99_ms) << " ms vs "
              << reactive->framework_name << " p99="
              << static_cast<int>(reactive->p99_ms) << " ms\n";
  }

  if (!env.csv_dir.empty()) {
    CsvWriter csv(env.csv_dir + "/zoo.csv");
    csv.header({"controller", "framework", "trace", "p95_ms", "p99_ms",
                "sla_500ms"});
    for (const ScalingRunResult& r : results) {
      csv.raw_row({r.framework_key, r.framework_name, r.trace_name,
                   format_cell(r.p95_ms), format_cell(r.p99_ms),
                   format_cell(r.sla_500ms)});
    }
    dump_counters_csv(env.csv_dir + "/zoo_counters.csv", results);
    std::cout << "  (summary written to " << env.csv_dir
              << "/zoo.{csv,_counters.csv})\n";
    // Full timelines + counters for the flagship trace, every controller.
    JsonExportOptions json_options;
    json_options.include_counters = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (traces[i / frameworks.size()] != TraceKind::kLargeVariations) {
        continue;
      }
      const std::string stem = "zoo_" + results[i].framework_key;
      dump_system_csv(env.csv_dir + "/" + stem + ".csv", results[i]);
      export_run_json(env.csv_dir + "/" + stem + ".json", results[i],
                      json_options);
    }
  }

  paper_note("Table I covers ec2/dcm/conscale only; the zoo rows are new "
             "baselines (see DESIGN.md, controller plug-in architecture).");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
