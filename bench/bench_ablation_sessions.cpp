// Ablation: i.i.d. request draws vs Markov-session navigation.
//
// The paper's generator issues Poisson request streams per user; real
// bulletin-board traffic navigates (browse bursts, occasional expensive
// searches), which correlates the request classes over short ranges. This
// ablation runs ConScale under both workload models on the same trace and
// compares tail latency and the SCT estimates — checking that the estimator
// is robust to realistic (non-i.i.d.) inputs.
#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Ablation — i.i.d. request draws vs Markov sessions",
         "Expectation: comparable control quality; sessions shift the class "
         "mix and think-time structure without breaking the SCT estimates.");

  // Run 0 draws i.i.d. requests, run 1 drives Markov sessions.
  const std::vector<ScalingRunResult> results =
      env.map<ScalingRunResult>(2, [&](std::size_t i) {
        ScalingRunOptions options = env.scaling_options();
        options.session_workload = i == 1;
        return run_scaling(env.params, TraceKind::kLargeVariations,
                           "conscale", options);
      });

  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScalingRunResult& result = results[i];
    char buf[220];
    std::snprintf(buf, sizeof(buf),
                  "  %-16s p50=%6.0fms p95=%6.0fms p99=%6.0fms "
                  "sla(500ms)=%3.0f%% completed=%llu estimates=%zu\n",
                  i == 1 ? "markov-sessions" : "iid-draws",
                  result.p50_ms, result.p95_ms, result.p99_ms,
                  result.sla_500ms * 100.0,
                  static_cast<unsigned long long>(result.requests_completed),
                  result.sct_history.size());
    std::cout << buf;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
