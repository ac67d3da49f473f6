// Figure 6: "The correlations between MySQL concurrency, throughput, and
// response time measured at 50 ms granularity during a 12-minute
// experiment" — the scatter graphs that motivate the SCT model, with the
// three stages and the rational concurrency range annotated.
#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Figure 6 — MySQL TP-vs-Q and RT-vs-Q scatter (12 min, 50 ms)",
         "Paper: ascending / stable / descending states; rational range "
         "~[15, 40]; RT grows with concurrency, crossing 50 ms around the "
         "upper bound.");

  ScatterRunOptions options;
  options.duration = env.duration;
  options.max_users = 160.0;
  options.fixed_app_vms = 4;  // enough Tomcats to push MySQL through all stages
  const ScatterRunResult result =
      collect_scatter(env.params, kDbTier, options);

  print_scatter_analysis(std::cout,
                         "Fig 6(a): MySQL throughput vs concurrency", result);

  // Fig 6(b): RT-vs-Q scatter from the same samples.
  Series rt_points;
  rt_points.name = "RT vs Q (50ms samples)";
  for (const auto& s : result.raw_samples) {
    if (s.concurrency < 0.5 || s.completions == 0) continue;
    rt_points.x.push_back(s.concurrency);
    rt_points.y.push_back(s.mean_rt * 1e3);
  }
  ChartOptions co;
  co.x_label = "Concurrency [#]";
  co.y_label = "Fig 6(b): Response Time [ms]  (paper: 50 ms SLA line)";
  co.height = 14;
  std::cout << render_scatter(rt_points, co);

  if (result.range) {
    paper_note("Fig 6: optimal concurrency = lower bound of the rational "
               "range; measured Q_lower=" +
               std::to_string(result.range->q_lower) + ", Q_upper=" +
               std::to_string(result.range->q_upper) + ".");
  }
  env.maybe_dump("fig06_scatter", result);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
