// Ablation: load-balancing policy during scale-out. The paper deploys
// HAProxy with `leastconn` (§IV-A); this ablation compares leastconn against
// plain round-robin under the Big Spike trace, where a newly added, empty
// server and established busy servers coexist — the case leastconn is
// designed for.
#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Ablation — HAProxy policy: leastconn vs roundrobin",
         "Expectation: comparable at steady state; leastconn integrates "
         "freshly added VMs more smoothly during scale-out.");

  const std::vector<LbPolicy> policies = {LbPolicy::kLeastConnections,
                                          LbPolicy::kRoundRobin};
  const std::vector<ScalingRunResult> results = env.map<ScalingRunResult>(
      policies.size(), [&](std::size_t i) {
        ScenarioParams params = env.params;
        params.lb_policy = policies[i];
        return run_scaling(params, TraceKind::kBigSpike, "conscale",
                           env.scaling_options());
      });

  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScalingRunResult& result = results[i];
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  %-12s p50=%6.0fms p95=%6.0fms p99=%6.0fms max=%6.0fms "
                  "completed=%llu\n",
                  to_string(policies[i]).c_str(), result.p50_ms, result.p95_ms,
                  result.p99_ms, result.max_rt_ms,
                  static_cast<unsigned long long>(result.requests_completed));
    std::cout << buf;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
