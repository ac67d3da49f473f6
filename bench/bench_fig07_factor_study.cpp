// Figure 7: "The comparison between server throughput-concurrency scatter
// graphs after vertical scaling, RUBBoS dataset size change, and workload
// characteristics change" — six scatter panels showing how Q_lower moves:
//   (a) MySQL 1-core           vs (d) MySQL 2-core       : Q_lower ~doubles
//   (b) Tomcat, original data  vs (e) enlarged dataset   : Q_lower drops
//   (c) MySQL, CPU-intensive   vs (f) read/write I/O mix : Q_lower drops hard
// Plus the paper's "interesting phenomenon" (§III-C.1): horizontal scaling
// does NOT move Q_lower — included here as panels (g)/(h).
#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

namespace {

int run_panel(const BenchEnv& env, const std::string& title,
              std::size_t target_tier, int db_cores, double dataset_scale,
              WorkloadMode mode, std::size_t app_vms, std::size_t db_vms,
              double max_users) {
  ScenarioParams params = env.params;
  params.db_cores = db_cores;
  params.mix.dataset_scale = dataset_scale;
  params.mode = mode;
  ScatterRunOptions options;
  options.duration = std::min<SimDuration>(env.duration, 240.0);
  options.max_users = max_users;
  options.fixed_app_vms = app_vms;
  options.fixed_db_vms = db_vms;
  const ScatterRunResult result =
      collect_scatter(params, target_tier, options);
  print_scatter_analysis(std::cout, title, result);
  return result.range ? result.range->q_lower : -1;
}

}  // namespace

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Figure 7 — factor study: what moves the optimal concurrency",
         "Paper: (a)->(d) Q_lower 10->20 with 2x cores; (b)->(e) 20->15 with "
         "bigger dataset; (c)->(f) 15->5 with I/O-intensive mix.");

  const int a = run_panel(env, "Fig 7(a): MySQL 1-core (1/4/1, browse-only)",
                          kDbTier, 1, 1.0, WorkloadMode::kBrowseOnly, 4, 1,
                          140.0);
  const int d = run_panel(env, "Fig 7(d): MySQL 2-core (vertical scaling)",
                          kDbTier, 2, 1.0, WorkloadMode::kBrowseOnly, 10, 1,
                          260.0);
  std::cout << "\n  vertical scaling: Q_lower " << a << " -> " << d
            << "  (paper: 10 -> 20; the ratio is the claim)\n";

  const int b = run_panel(env, "Fig 7(b): Tomcat, original dataset (1/1/4)",
                          kAppTier, 1, 1.0, WorkloadMode::kBrowseOnly, 1, 4,
                          120.0);
  const int e = run_panel(env, "Fig 7(e): Tomcat, enlarged dataset (1.6x)",
                          kAppTier, 1, 1.6, WorkloadMode::kBrowseOnly, 1, 4,
                          120.0);
  std::cout << "\n  dataset change: Q_lower " << b << " -> " << e
            << "  (paper: 20 -> 15)\n";

  const int c = run_panel(env, "Fig 7(c): MySQL, CPU-intensive workload",
                          kDbTier, 1, 1.0, WorkloadMode::kBrowseOnly, 4, 1,
                          140.0);
  const int f = run_panel(env, "Fig 7(f): MySQL, read/write I/O-intensive",
                          kDbTier, 1, 1.0, WorkloadMode::kReadWriteMix, 4, 1,
                          140.0);
  std::cout << "\n  workload type: Q_lower " << c << " -> " << f
            << "  (paper: 15 -> 5)\n";

  // Horizontal scaling invariance ("details omitted" in the paper): the
  // per-server optimum should NOT move when replicas are added.
  const int g = run_panel(env, "Fig 7(g)*: MySQL, 1 replica (1/4/1)",
                          kDbTier, 1, 1.0, WorkloadMode::kBrowseOnly, 4, 1,
                          140.0);
  const int h = run_panel(env, "Fig 7(h)*: MySQL, 2 replicas (1/4/2)",
                          kDbTier, 1, 1.0, WorkloadMode::kBrowseOnly, 4, 2,
                          260.0);
  std::cout << "\n  horizontal scaling: per-server Q_lower " << g << " -> "
            << h << "  (paper: unchanged)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
