// mva_vs_sim: analytical prediction versus simulated measurement.
//
// Solves the closed queueing network of the profiling topology with exact
// MVA (the math DCM-style offline frameworks use) and overlays it with the
// simulator's measured concurrency sweep — the same comparison a modeling
// paper would show to validate its simulator, here in one terminal chart.
//
// Usage:
//   mva_vs_sim [tier=db|app] [cores=1] [mode=browse|readwrite]
//              [dataset_scale=1.0] [max_q=80]
#include <iostream>

#include "common/ascii_chart.h"
#include "common/config.h"
#include "experiments/analytic.h"
#include "experiments/runner.h"

using namespace conscale;

int main(int argc, char** argv) try {
  const Config config = Config::from_args(argc, argv);
  config.require_known_keys({"dataset_scale", "mode", "tier", "cores",
                             "max_q"});
  ScenarioParams params = ScenarioParams::paper_default();
  params.mix.dataset_scale = config.get_double("dataset_scale", 1.0);
  params.mode = config.get_string("mode", "browse") == "readwrite"
                    ? WorkloadMode::kReadWriteMix
                    : WorkloadMode::kBrowseOnly;
  const std::string tier_name = config.get_string("tier", "db");
  const std::size_t tier = tier_name == "app" ? kAppTier : kDbTier;
  const int cores = static_cast<int>(config.get_int("cores", 1));
  if (tier == kDbTier) params.db_cores = cores;
  if (tier == kAppTier) params.app_cores = cores;
  const int max_q = static_cast<int>(config.get_int("max_q", 80));

  // Analytical curve: system population swept 1..N, reported against the
  // target tier's local concurrency (what the soft resource actually caps).
  const auto stations = stations_for_tier_profile(params, tier);
  const auto curve = solve_mva(stations, 4 * max_q);
  Series analytic;
  analytic.name = "MVA prediction";
  for (const auto& point : curve) {
    double local = 0.0;
    for (std::size_t i = 0; i < stations.size(); ++i) {
      const std::string& name = stations[i].name;
      const bool db_side = name.rfind("db.", 0) == 0;
      const bool app_side = name.rfind("app.", 0) == 0;
      if (tier == kDbTier && db_side) local += point.queue_lengths[i];
      if (tier == kAppTier && (db_side || app_side)) {
        local += point.queue_lengths[i];
      }
    }
    if (local > max_q) break;
    analytic.x.push_back(local);
    analytic.y.push_back(point.throughput *
                         (tier == kDbTier ? 2.0 : 1.0));  // queries/s for DB
  }

  // Simulated sweep at the same concurrency levels.
  std::vector<int> levels;
  for (int q = 2; q <= max_q; q += (q < 20 ? 2 : 10)) levels.push_back(q);
  SweepOptions options;
  if (tier == kDbTier) options.fixed_app_vms = 4;
  if (tier == kAppTier) options.fixed_db_vms = 4;
  const auto points = run_concurrency_sweep(params, tier, levels, options);
  Series simulated;
  simulated.name = "simulated sweep";
  for (const auto& p : points) {
    simulated.x.push_back(p.concurrency);
    // The sweep reports per-request completions at the target tier; for the
    // DB tier a request is one query already.
    simulated.y.push_back(p.throughput);
  }

  std::cout << "Analytical MVA vs simulation for the "
            << (tier == kDbTier ? "MySQL" : "Tomcat") << " tier ("
            << cores << " core(s))\n";
  ChartOptions co;
  co.x_label = "Concurrency [#]";
  co.y_label = tier == kDbTier ? "Throughput [queries/s]"
                               : "Throughput [requests/s]";
  co.height = 16;
  std::cout << render_lines({analytic, simulated}, co);

  const AnalyticalRange range = analytical_range(stations, 4 * max_q);
  const DcmProfile analytic_profile = train_dcm_profile_analytical(params);
  std::cout << "  analytical TPmax=" << static_cast<int>(range.tp_max)
            << "/s; optimal local concurrency (analytical) = "
            << analytic_profile.tier_optimal_concurrency.at(tier) << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
