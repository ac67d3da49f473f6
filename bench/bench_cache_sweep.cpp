// Cache-tier evaluation: the Frontend -> Cache -> Db chain of
// experiments/graph_scenario.h, where the cache node short-circuits its
// subtree on a hit and the hit ratio churns with the working set. Two
// questions:
//
//   1. Grid — can each controller hold the tail while the churn cycle
//      migrates the critical resource between Frontend and Db mid-run?
//      (frameworks x traces, like the chain benches)
//   2. Sweep — how does the tail degrade as the base hit ratio drops from
//      "cache absorbs everything" to "cache is a pass-through"? Run with
//      the first framework of the list on the flagship trace.
//
// Extra keys beyond the common set:
//   frameworks=a,b,...  controller-registry refs (default: every registered
//                       controller)
//   traces=N            first N trace kinds for the grid
//   ratios=r1,r2,...    base hit ratios for the sweep
//                       (default 0.95,0.85,0.7,0.5,0.25,0)
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/csv.h"
#include "experiments/graph_runner.h"

using namespace conscale;
using namespace conscale::bench;

namespace {

std::vector<double> parse_ratios(const std::string& text) {
  std::vector<double> ratios;
  std::stringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) {
      ratios.push_back(Config::parse_double("ratios", token));
    }
  }
  return ratios;
}

}  // namespace

int main(int argc, char** argv) try {
  if (list_controllers_requested(argc, argv)) {
    print_controller_list(std::cout);
    return 0;
  }
  BenchEnv env =
      BenchEnv::from_args(argc, argv, {"traces", "frameworks", "ratios"});
  const Config config = Config::from_args(argc, argv);
  const long trace_limit = config.get_int("traces", 6);
  const std::vector<ControllerRef> frameworks = frameworks_from(
      config, "ec2,dcm,conscale,pi,fuzzy,vertical,holt-winters");
  const std::vector<double> ratios = parse_ratios(
      config.get_string("ratios", "0.95,0.85,0.7,0.5,0.25,0"));
  banner("Service graph — cache tier with working-set churn",
         "A deterministic hit-ratio cache short-circuits the Db subtree; "
         "churn swells the working set mid-run, so misses flood the backend "
         "and the critical resource migrates between nodes.");

  std::vector<TraceKind> traces = all_trace_kinds();
  if (trace_limit > 0 &&
      static_cast<std::size_t>(trace_limit) < traces.size()) {
    traces.resize(static_cast<std::size_t>(trace_limit));
  }

  const GraphScenario scenario = make_cache_scenario(env.params);
  const ControllerRegistry& registry = ControllerRegistry::global();

  // ---- part 1: frameworks x traces grid at the scenario's base ratio ----
  struct Cell {
    ControllerRef framework;
    TraceKind trace;
  };
  std::vector<Cell> cells;
  for (const ControllerRef& framework : frameworks) {
    for (TraceKind trace : traces) cells.push_back({framework, trace});
  }
  std::cout << "  grid: " << frameworks.size() << " frameworks x "
            << traces.size() << " traces = " << cells.size()
            << " runs (base hit ratio "
            << format_cell(scenario.graph.nodes[1].cache.base_hit_ratio)
            << ")\n";
  const std::vector<GraphRunResult> grid = env.map<GraphRunResult>(
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
      const ScalingRunResult& r = grid[index++].run;
      rows.push_back({r.framework_name, r.trace_name, r.p95_ms, r.p99_ms});
    }
    print_tail_table(std::cout, "cache — " + rows.front().framework, rows);
  }

  // ---- part 2: hit-ratio sweep (first framework, flagship trace) ----
  const ControllerRef sweep_framework = frameworks.front();
  const std::vector<GraphRunResult> sweep = env.map<GraphRunResult>(
      ratios.size(), [&](std::size_t i) {
        GraphScenario variant = scenario;
        variant.graph.nodes[1].cache.base_hit_ratio = ratios[i];
        return run_graph_scaling(variant, TraceKind::kLargeVariations,
                                 to_string(sweep_framework),
                                 env.scaling_options());
      });

  std::cout << "\n  hit-ratio sweep ("
            << registry.at(sweep_framework.name).display_name
            << ", large_variations):\n"
            << "    ratio   observed   p95[ms]   p99[ms]   db_share\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const GraphRunResult& r = sweep[i];
    const topology::CacheStats& cache = r.caches.front().second;
    const double draws =
        static_cast<double>(cache.hits + cache.misses);
    const double observed = draws > 0.0 ? cache.hits / draws : 0.0;
    // Share of cache lookups that continued into the Db subtree.
    const double db_share = draws > 0.0 ? cache.misses / draws : 0.0;
    std::printf("    %5s   %8.3f   %7.1f   %7.1f   %8.3f\n",
                format_cell(ratios[i]).c_str(), observed, r.run.p95_ms,
                r.run.p99_ms, db_share);
  }
  std::cout << "\n  per-node latency at the sweep extremes:\n";
  for (std::size_t i : {std::size_t{0}, sweep.size() - 1}) {
    std::cout << "   ratio=" << format_cell(ratios[i]) << ":\n";
    print_node_latency(std::cout, sweep[i].node_latency);
  }

  if (!env.csv_dir.empty()) {
    CsvWriter summary(env.csv_dir + "/cache_grid.csv");
    summary.header({"framework", "trace", "p95_ms", "p99_ms", "sla_500ms",
                    "cache_hits", "cache_misses"});
    for (const GraphRunResult& r : grid) {
      const topology::CacheStats& cache = r.caches.front().second;
      summary.raw_row({r.run.framework_key, r.run.trace_name,
                       format_cell(r.run.p95_ms), format_cell(r.run.p99_ms),
                       format_cell(r.run.sla_500ms),
                       std::to_string(cache.hits),
                       std::to_string(cache.misses)});
    }
    CsvWriter csv(env.csv_dir + "/cache_sweep.csv");
    csv.header({"base_hit_ratio", "observed_hit_ratio", "p95_ms", "p99_ms",
                "sla_500ms", "cache_hits", "cache_misses"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const GraphRunResult& r = sweep[i];
      const topology::CacheStats& cache = r.caches.front().second;
      const double draws = static_cast<double>(cache.hits + cache.misses);
      csv.raw_row({format_cell(ratios[i]),
                   format_cell(draws > 0.0 ? cache.hits / draws : 0.0),
                   format_cell(r.run.p95_ms), format_cell(r.run.p99_ms),
                   format_cell(r.run.sla_500ms), std::to_string(cache.hits),
                   std::to_string(cache.misses)});
      dump_node_latency_csv(env.csv_dir + "/cache_ratio" +
                                std::to_string(i) + "_nodes.csv",
                            r);
    }
    std::cout << "  (grid + sweep + node breakdowns written to "
              << env.csv_dir << "/cache_*.csv)\n";
  }

  paper_note("No paper counterpart: hit-ratio churn moves the bottleneck "
             "between nodes mid-run — the fast-concurrency-adapting claim "
             "under a migrating critical resource.");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
