// flash_crowd: a Slashdot-effect scenario (the paper's motivating workload
// class, §I). A quiet bulletin-board site gets linked from a high-traffic
// aggregator: traffic multiplies within seconds. The example runs the same
// flash crowd against all three scaling frameworks and prints a side-by-side
// comparison, including the soft-resource decisions ConScale makes.
//
// Usage:
//   flash_crowd [spike_users=9000] [base_users=900] [duration=480]
//               [work_scale=1] [seed=7]
#include <iostream>
#include <vector>

#include "common/config.h"
#include "experiments/report.h"
#include "experiments/runner.h"

using namespace conscale;

namespace {

// A hand-built flash-crowd trace: quiet, then a near-instant surge that
// holds for two minutes, then a slow drain-off.
WorkloadTrace make_flash_crowd(double base, double spike,
                               SimDuration duration) {
  const auto count = static_cast<std::size_t>(duration) + 1;
  std::vector<double> users(count, base);
  const std::size_t hit = count / 3;            // the link goes live
  const std::size_t hold = hit + 120;           // two minutes of pile-on
  for (std::size_t i = hit; i < count; ++i) {
    if (i < hit + 20) {
      // 20-second pile-on ramp: far faster than any VM can boot.
      users[i] = base + (spike - base) *
                            static_cast<double>(i - hit) / 20.0;
    } else if (i < hold) {
      users[i] = spike;
    } else {
      // Exponential-ish decay back toward base.
      const double frac = static_cast<double>(i - hold) /
                          static_cast<double>(count - hold);
      users[i] = base + (spike - base) * (1.0 - frac) * (1.0 - frac);
    }
  }
  return WorkloadTrace("flash_crowd", 1.0, std::move(users));
}

}  // namespace

int main(int argc, char** argv) try {
  const Config config = Config::from_args(argc, argv);
  config.require_known_keys({"work_scale", "seed", "base_users", "spike_users",
                             "duration"});
  ScenarioParams params = ScenarioParams::paper_default();
  params.work_scale = config.get_double("work_scale", 1.0);
  params.seed = static_cast<std::uint64_t>(config.get_int("seed", 7));
  const double base =
      config.get_double("base_users", 900.0) / params.work_scale;
  const double spike =
      config.get_double("spike_users", 9000.0) / params.work_scale;
  const SimDuration duration = config.get_double("duration", 480.0);

  const WorkloadTrace trace = make_flash_crowd(base, spike, duration);
  std::cout << "Flash crowd: " << base << " -> " << spike
            << " users in 20 s, holding 120 s\n\n";

  ScalingRunOptions options;
  options.duration = duration;

  struct Row {
    std::string name;
    double p95, p99, max;
    std::uint64_t completed;
  };
  std::vector<Row> rows;
  for (const std::string framework : {"ec2", "dcm", "conscale"}) {
    ScalingRunOptions run_options = options;
    if (framework == "dcm") {
      // Give DCM a profile trained on exactly these conditions — its best
      // case (no staleness in this example).
      FrameworkConfig fc = make_framework_config();
      fc.dcm_profile = train_dcm_profile(params);
      run_options.framework_config = fc;
    }
    const ScalingRunResult result =
        run_scaling(params, trace, framework, run_options);
    rows.push_back({result.framework_name, result.p95_ms, result.p99_ms,
                    result.max_rt_ms, result.requests_completed});
    print_performance_timeline(std::cout, result.framework_name, result);
    if (framework == "conscale") {
      print_events(std::cout, result.events);
    }
    std::cout << '\n';
  }

  std::cout << "=== flash-crowd summary ===\n";
  char buf[160];
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf),
                  "  %-16s p95=%7.0fms p99=%7.0fms max=%7.0fms completed=%llu\n",
                  r.name.c_str(), r.p95, r.p99, r.max,
                  static_cast<unsigned long long>(r.completed));
    std::cout << buf;
  }
  std::cout <<
      "\nReading the result: a single, never-before-seen surge is the one "
      "case where a\nfreshly trained offline profile (DCM, trained on these "
      "exact conditions) can beat\nonline estimation — ConScale has no "
      "measurements of the overload regime until the\noverload itself. Its "
      "advantage appears when bursts recur or conditions drift\n(see "
      "bench_fig10/bench_fig11): there DCM's profile is stale and "
      "EC2-AutoScaling\nnever adapts pools at all.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
