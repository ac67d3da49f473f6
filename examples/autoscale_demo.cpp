// autoscale_demo: run the full ConScale scaling pipeline against one of the
// six bursty workload traces and compare it (optionally) with
// EC2-AutoScaling on the same trace — a minimal version of the paper's §V
// evaluation for interactive use.
//
// Usage:
//   autoscale_demo [trace=large_variations|quickly_varying|slowly_varying|
//                   big_spike|dual_phase|steep_tri_phase]
//                  [framework=<registry ref>|both] [duration=720]
//                  [work_scale=4] [max_users=7500] [seed=12345]
#include <iostream>
#include <string>

#include "common/config.h"
#include "experiments/report.h"
#include "experiments/runner.h"

using namespace conscale;

namespace {

TraceKind parse_trace(const std::string& name) {
  for (TraceKind kind : all_trace_kinds()) {
    if (to_string(kind) == name) return kind;
  }
  throw std::runtime_error("unknown trace: " + name);
}

void run_one(const ScenarioParams& params, TraceKind trace,
             const std::string& framework, SimDuration duration) {
  ScalingRunOptions options;
  options.duration = duration;
  const ScalingRunResult result =
      run_scaling(params, trace, framework, options);
  print_performance_timeline(std::cout,
                             result.framework_name + " on " + result.trace_name,
                             result);
  print_scaling_timeline(std::cout, result.framework_name + " scaling activity",
                         result);
  print_events(std::cout, result.events);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) try {
  const Config config = Config::from_args(argc, argv);
  config.require_known_keys({"work_scale", "max_users", "seed", "trace",
                             "duration", "framework"});

  ScenarioParams params = ScenarioParams::paper_default();
  params.work_scale = config.get_double("work_scale", 4.0);
  params.max_users = config.get_double("max_users", 7500.0);
  params.seed = static_cast<std::uint64_t>(config.get_int("seed", 12345));

  const TraceKind trace =
      parse_trace(config.get_string("trace", "large_variations"));
  const SimDuration duration = config.get_double("duration", 720.0);
  const std::string framework = config.get_string("framework", "both");

  if (framework == "both") {
    run_one(params, trace, "ec2", duration);
    run_one(params, trace, "conscale", duration);
  } else {
    // Any registered controller reference works here ("pi", "holt-winters",
    // "conscale(headroom=1.2)", ...); unknown names abort with the list.
    run_one(params, trace, framework, duration);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
