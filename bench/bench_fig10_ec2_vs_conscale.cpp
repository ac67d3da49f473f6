// Figure 10: "Large performance fluctuations of EC2-AutoScaling compared to
// ConScale using the same 'Large Variation' workload trace." Four panels:
//   (a) EC2 RT + throughput      (b) ConScale RT + throughput
//   (c) EC2 tier CPU + #VMs      (d) ConScale tier CPU + #VMs
// Both start 1/1/1 with soft allocation 1000-60-40.
#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Figure 10 — EC2-AutoScaling vs ConScale, Large Variation trace",
         "Paper: EC2 spikes (periods 62-95 s, 244-285 s, 545-570 s) with "
         "throughput drops; ConScale stays stable and low.");

  const std::vector<ScalingRunResult> results =
      env.map<ScalingRunResult>(2, [&](std::size_t i) {
        return run_scaling(env.params, TraceKind::kLargeVariations,
                           i == 0 ? "ec2" : "conscale",
                           env.scaling_options());
      });
  const ScalingRunResult& ec2 = results[0];
  const ScalingRunResult& con = results[1];

  print_performance_timeline(std::cout, "Fig 10(a): EC2-AutoScaling", ec2);
  print_performance_timeline(std::cout, "Fig 10(b): ConScale", con);
  print_scaling_timeline(std::cout, "Fig 10(c): EC2-AutoScaling scaling",
                         ec2);
  print_scaling_timeline(std::cout, "Fig 10(d): ConScale scaling", con);
  std::cout << "-- EC2-AutoScaling events --\n";
  print_events(std::cout, ec2.events);
  std::cout << "-- ConScale events --\n";
  print_events(std::cout, con.events);

  paper_note("Fig 10: same hardware scaling rule; ConScale additionally "
             "adapts Tomcat threads and the per-Tomcat DB connection pool "
             "after each scaling completes.");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  summary: p99 EC2=%.0f ms vs ConScale=%.0f ms (paper: 2345 "
                "vs 465); completed %llu vs %llu requests\n",
                ec2.p99_ms, con.p99_ms,
                static_cast<unsigned long long>(ec2.requests_completed),
                static_cast<unsigned long long>(con.requests_completed));
  std::cout << buf;
  env.maybe_dump("fig10_ec2", ec2);
  env.maybe_dump("fig10_conscale", con);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
