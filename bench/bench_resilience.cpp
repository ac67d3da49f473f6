// Resilience under environment perturbations: how each scaling framework's
// tail latency degrades when the cloud misbehaves. The paper evaluates
// ConScale under clean conditions (Table I, Fig 10/11); this bench stresses
// the same 3-framework × 6-trace grid under the four deterministic fault
// kinds of src/faults:
//
//   crash  a running app-tier VM fails mid-run and restarts later
//   cpu    noisy neighbor: the DB tier runs at half speed for a window
//   boot   degraded provisioning: every scale-out takes 3x longer
//   drop   monitoring blackout: the warehouse ingests nothing for a window
//
// plus the fault-free baseline. Staleness guards (controller + estimator)
// are enabled for every framework so the dropout scenario measures "hold
// the last safe decision", not "act on frozen data".
//
// Extra keys beyond the common set: traces=N limits the grid to the first N
// trace kinds (CI smoke runs use traces=1).
#include <algorithm>
#include <map>
#include <vector>

#include "bench_common.h"
#include "common/csv.h"

using namespace conscale;
using namespace conscale::bench;

namespace {

/// The four fault schedules, expressed as plan text so this bench exercises
/// the same parse path as `faults=` on any other bench. Times scale with
/// the run so compressed CI runs still place every window inside the run.
std::vector<std::pair<std::string, std::string>> fault_scenarios(
    double duration) {
  const auto at = [&](double fraction) {
    return format_cell(duration * fraction);
  };
  return {
      {"none", ""},
      {"crash", "crash t=" + at(0.30) + " tier=app vm=0 restart=" + at(0.10)},
      {"cpu", "cpu t=" + at(0.35) + " dur=" + at(0.15) +
                  " tier=db vm=all factor=0.5"},
      {"boot", "boot t=0 dur=" + at(1.0) + " factor=3"},
      {"drop", "drop t=" + at(0.40) + " dur=" + at(0.10)},
  };
}

}  // namespace

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv, {"traces", "frameworks"});
  const Config config = Config::from_args(argc, argv);
  const long trace_limit = config.get_int("traces", 6);
  const std::vector<ControllerRef> frameworks =
      frameworks_from(config, "ec2,dcm,conscale");
  banner("Resilience — EC2-AutoScaling vs DCM vs ConScale under faults",
         "Fault injection beyond the paper: the SCT loop must degrade "
         "gracefully when VMs crash, neighbors steal CPU, provisioning "
         "drags, or monitoring goes dark.");

  std::vector<TraceKind> traces = all_trace_kinds();
  if (trace_limit > 0 &&
      static_cast<std::size_t>(trace_limit) < traces.size()) {
    traces.resize(static_cast<std::size_t>(trace_limit));
  }
  const auto scenarios = fault_scenarios(env.duration);

  // One framework config for all runs, with the dropout guards on: hold
  // decisions when the newest tier sample is older than 5 s, and keep the
  // cached SCT range when the fine-grained window goes stale.
  FrameworkConfig base_config = make_framework_config();
  base_config.controller.metric_staleness_limit = 5.0;
  base_config.estimator.max_staleness = 30.0;
  FrameworkConfig dcm_config = base_config;
  if (std::any_of(frameworks.begin(), frameworks.end(),
                  [](const ControllerRef& ref) { return ref.name == "dcm"; })) {
    // DCM trains offline once, on clean conditions — the profile does not
    // get to see the faults, exactly like a real pre-trained model would not.
    std::cout << "  training DCM offline (clean conditions)...\n";
    dcm_config.dcm_profile = train_dcm_profile(env.params);
  }

  // A scenario's own plan replaces a faults= plan; the nominal scenario
  // keeps it.
  struct Cell {
    ControllerRef framework;
    TraceKind trace;
    ScalingRunOptions options;
  };
  std::vector<Cell> cells;
  for (const auto& [fault_name, plan_text] : scenarios) {
    for (const ControllerRef& framework : frameworks) {
      for (TraceKind trace : traces) {
        ScalingRunOptions options = env.scaling_options();
        options.framework_config =
            framework.name == "dcm" ? dcm_config : base_config;
        if (!plan_text.empty()) options.faults = FaultPlan::parse(plan_text);
        cells.push_back({framework, trace, std::move(options)});
      }
    }
  }
  std::cout << "  grid: " << scenarios.size() << " fault scenarios x "
            << frameworks.size() << " frameworks x " << traces.size()
            << " traces = " << cells.size() << " runs\n";
  const std::vector<ScalingRunResult> results = env.map<ScalingRunResult>(
      cells.size(), [&](std::size_t i) {
        return run_scaling(env.params, cells[i].trace,
                           to_string(cells[i].framework), cells[i].options);
      });

  // ---- per-fault tail tables + worst-case summary --------------------------
  std::map<std::string, std::map<std::string, double>> worst_p99;
  std::size_t index = 0;
  for (const auto& [fault_name, plan_text] : scenarios) {
    std::vector<TailRow> rows;
    for (std::size_t f = 0; f < frameworks.size(); ++f) {
      for (std::size_t t = 0; t < traces.size(); ++t) {
        const ScalingRunResult& result = results[index++];
        rows.push_back({result.framework_name, result.trace_name,
                        result.p95_ms, result.p99_ms});
        auto& worst = worst_p99[fault_name][result.framework_name];
        worst = std::max(worst, result.p99_ms);
      }
    }
    print_tail_table(std::cout, "fault=" + fault_name, rows);
  }

  std::cout << "\n  worst-case p99 by fault scenario [ms]:\n";
  for (const auto& [fault_name, by_framework] : worst_p99) {
    std::cout << "    " << fault_name << ":";
    for (const auto& [framework, p99] : by_framework) {
      std::cout << " " << framework << "=" << static_cast<int>(p99);
    }
    std::cout << "\n";
  }

  // ---- CSV/JSON artifacts --------------------------------------------------
  if (!env.csv_dir.empty()) {
    CsvWriter csv(env.csv_dir + "/resilience.csv");
    csv.header({"fault", "framework", "trace", "p95_ms", "p99_ms",
                "sla_500ms", "requests_aborted", "crashes_injected",
                "dropped_samples"});
    index = 0;
    for (const auto& [fault_name, plan_text] : scenarios) {
      for (std::size_t f = 0; f < frameworks.size(); ++f) {
        for (std::size_t t = 0; t < traces.size(); ++t) {
          const ScalingRunResult& r = results[index++];
          csv.raw_row({fault_name, r.framework_name, r.trace_name,
                       format_cell(r.p95_ms), format_cell(r.p99_ms),
                       format_cell(r.sla_500ms),
                       std::to_string(r.requests_aborted),
                       std::to_string(r.fault_stats.crashes_injected),
                       std::to_string(r.dropped_samples)});
        }
      }
    }
    std::cout << "  (summary written to " << env.csv_dir
              << "/resilience.csv)\n";
    // Timeline + fault-window dumps for the flagship trace, every scenario.
    index = 0;
    for (const auto& [fault_name, plan_text] : scenarios) {
      for (std::size_t f = 0; f < frameworks.size(); ++f) {
        for (std::size_t t = 0; t < traces.size(); ++t) {
          const ScalingRunResult& r = results[index];
          if (cells[index++].trace != TraceKind::kLargeVariations) continue;
          const std::string stem =
              "resilience_" + fault_name + "_" + r.framework_name;
          env.maybe_dump(stem, r);
          dump_fault_windows_csv(env.csv_dir + "/" + stem + "_windows.csv",
                                 r);
        }
      }
    }
  }

  paper_note("No paper counterpart: resilience grid extends Table I with "
             "deterministic fault injection (see DESIGN.md §7).");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
