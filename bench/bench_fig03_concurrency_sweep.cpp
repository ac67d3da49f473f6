// Figure 3: "Performance variation at increasing workload concurrency for
// Tomcat in a 3-tier system" — throughput and response time versus a
// precisely controlled concurrency level, for three conditions:
//   (a) Tomcat 1-core                      -> peak at concurrency ~10
//   (b) Tomcat 2-core                      -> peak at concurrency ~20
//   (c) Tomcat 2-core, doubled dataset     -> peak at concurrency ~15
//
// Method follows §II-B: zero-think closed-loop stress with exactly K users
// and pool sizes set to K, per level.
#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

namespace {

void run_panel(const BenchEnv& env, const std::string& title, int cores,
               double dataset_scale, const std::string& expectation) {
  ScenarioParams params = env.params;
  params.app_cores = cores;
  params.mix.dataset_scale = dataset_scale;

  const std::vector<int> levels = {5, 10, 15, 20, 30, 40, 60, 80, 100};
  SweepOptions options;
  options.fixed_db_vms = 4;  // 1/1/4: Tomcat is the single bottleneck
  options.settle = 4.0 * params.work_scale;
  options.measure = 20.0 * params.work_scale;
  const auto points =
      run_concurrency_sweep(params, kAppTier, levels, options);
  print_sweep(std::cout, title, points);
  paper_note(expectation);

  double best_tp = 0.0;
  for (const auto& p : points) best_tp = std::max(best_tp, p.throughput);
  // Report the knee the way the paper does: the *lowest* concurrency whose
  // throughput reaches the maximum (within a 5% plateau tolerance) — beyond
  // it extra concurrency only buys response time.
  int knee = points.empty() ? 0 : points.back().concurrency;
  for (const auto& p : points) {
    if (p.throughput >= 0.95 * best_tp) {
      knee = p.concurrency;
      break;
    }
  }
  std::cout << "  measured: highest throughput " << static_cast<int>(best_tp)
            << " req/s, reached from concurrency " << knee << " on\n";
}

}  // namespace

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Figure 3 — Tomcat throughput/RT vs controlled concurrency",
         "Paper: optimum at ~10 (1-core), ~20 (2-core), ~15 (2-core, bigger "
         "dataset).");
  run_panel(env, "Fig 3(a): Tomcat 1-core", 1, 1.0,
            "Fig 3(a): peak throughput at concurrency 10 (~1300 req/s).");
  run_panel(env, "Fig 3(b): Tomcat 2-core", 2, 1.0,
            "Fig 3(b): peak throughput at concurrency 20 (~2600 req/s).");
  run_panel(env, "Fig 3(c): Tomcat 2-core, enlarged dataset", 2, 1.6,
            "Fig 3(c): peak moves back to concurrency 15 at lower TPmax.");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
