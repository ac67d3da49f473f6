// Figure 11: "Our proposed ConScale framework achieves much more stable and
// low response time and higher throughput than that in the DCM case when the
// system state changes (i.e., the dataset size)."
//
// Protocol (§V): DCM's offline model is trained on the ORIGINAL dataset
// (profiling runs -> per-tier optimal concurrency). Both frameworks then
// serve the Large Variation trace against a REDUCED dataset; DCM keeps its
// stale trained allocation (too low for the new optimum — the
// under-allocation effect), while ConScale re-estimates online.
#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Figure 11 — DCM (offline profile) vs ConScale (online SCT)",
         "Paper: DCM spikes at 85-90 s because its trained Tomcat setting "
         "(20) is too low once the dataset shrinks (optimum ~30).");

  std::cout << "  training DCM offline on the original dataset...\n";
  const DcmProfile profile = train_dcm_profile(env.params);
  for (const auto& [tier, optimum] : profile.tier_optimal_concurrency) {
    std::cout << "  trained optimal concurrency, tier " << tier << " ("
              << (tier == kAppTier ? "Tomcat" : "MySQL") << "): " << optimum
              << "\n";
  }

  // The runtime environment differs from training: the dataset shrank to
  // 40% (continuous dataset churn, §V), which makes every query cheaper and
  // roughly *doubles* the concurrency MySQL needs to stay saturated. DCM's
  // frozen per-tier optimum now caps MySQL far below its knee — the paper's
  // under-allocation effect — while ConScale re-estimates the knee online.
  // Users rise correspondingly (lighter requests, same infrastructure
  // pressure).
  ScalingRunOptions options = env.scaling_options();
  options.runtime_dataset_scale = 0.4;
  ScenarioParams params = env.params;
  params.max_users = env.params.max_users / 0.55;

  ScalingRunOptions dcm_options = options;
  dcm_options.framework_config = make_framework_config();
  dcm_options.framework_config->dcm_profile = profile;

  const std::vector<ScalingRunResult> results =
      env.map<ScalingRunResult>(2, [&](std::size_t i) {
        return i == 0 ? run_scaling(params, TraceKind::kLargeVariations,
                                    "dcm", dcm_options)
                      : run_scaling(params, TraceKind::kLargeVariations,
                                    "conscale", options);
      });
  const ScalingRunResult& dcm = results[0];
  const ScalingRunResult& con = results[1];

  print_performance_timeline(std::cout, "Fig 11(a): DCM", dcm);
  print_performance_timeline(std::cout, "Fig 11(b): ConScale", con);
  print_scaling_timeline(std::cout, "Fig 11(c): DCM scaling", dcm);
  print_scaling_timeline(std::cout, "Fig 11(d): ConScale scaling", con);
  std::cout << "-- DCM events --\n";
  print_events(std::cout, dcm.events);
  std::cout << "-- ConScale events --\n";
  print_events(std::cout, con.events);

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  summary: p99 DCM=%.0f ms vs ConScale=%.0f ms; throughput "
                "%llu vs %llu completed requests\n",
                dcm.p99_ms, con.p99_ms,
                static_cast<unsigned long long>(dcm.requests_completed),
                static_cast<unsigned long long>(con.requests_completed));
  std::cout << buf;
  paper_note("Fig 11: ConScale estimates the new optimum online; DCM's "
             "pre-trained setting under-allocates after the dataset change.");
  env.maybe_dump("fig11_dcm", dcm);
  env.maybe_dump("fig11_conscale", con);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
