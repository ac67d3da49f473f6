// Ablation: the estimation window of the Optimal Concurrency Estimator
// (§III-A: "a short time window (e.g., 3 minutes)"). Short windows react
// fast but hold few samples per concurrency level; long windows are stable
// but blend stale pre-change behaviour into the estimate. This sweep runs
// ConScale on the Large Variation trace with different windows and reports
// tail latency and how many estimates the service produced.
#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Ablation — SCT estimation window (paper: 3 minutes)",
         "Expectation: a broad sweet spot around 1-3 min; very short windows "
         "estimate rarely (too thin), very long ones react late.");

  const std::vector<double> windows = {30.0, 60.0, 120.0, 180.0, 300.0};
  const std::vector<ScalingRunResult> results = env.map<ScalingRunResult>(
      windows.size(), [&](std::size_t i) {
        ScalingRunOptions options = env.scaling_options();
        options.framework_config = make_framework_config();
        options.framework_config->estimator.window = windows[i];
        return run_scaling(env.params, TraceKind::kLargeVariations,
                           "conscale", options);
      });

  std::cout << "  window[s]  estimates  p95[ms]  p99[ms]  completed\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScalingRunResult& result = results[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %8.0f %10zu %8.0f %8.0f %10llu\n",
                  windows[i], result.sct_history.size(), result.p95_ms,
                  result.p99_ms,
                  static_cast<unsigned long long>(result.requests_completed));
    std::cout << buf;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
