// Figure 1: "Large response time fluctuations of a 3-tier system when it
// scales the number of VMs using the EC2-AutoScaling strategy to handle
// bursty workload."
//
// Regenerates the paper's motivating figure: response-time timeline and the
// total-VM-count timeline of a hardware-only autoscaler under the bursty
// Large Variation trace, starting from 1/1/1 with soft resources 1000-60-40.
#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Figure 1 — EC2-AutoScaling response-time fluctuation",
         "Paper: spikes to ~2000+ ms while VMs ramp 3 -> ~8 over 720 s.");

  const ScalingRunOptions options = env.scaling_options();
  const ScalingRunResult result =
      run_scaling(env.params, TraceKind::kLargeVariations,
                  "ec2", options);

  print_performance_timeline(std::cout, "Fig 1: EC2-AutoScaling, RT timeline",
                             result);
  print_scaling_timeline(std::cout, "Fig 1: total # of VMs", result);
  print_events(std::cout, result.events);
  paper_note("Fig 1 shows RT spikes during scale-out phases; measured max RT "
             "= " + std::to_string(static_cast<int>(result.max_rt_ms)) +
             " ms, p99 = " + std::to_string(static_cast<int>(result.p99_ms)) +
             " ms.");
  env.maybe_dump("fig01_ec2", result);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
