// Ablation: the monitoring interval (§III-B "It is important to choose an
// appropriate time interval... too long or too short of the time interval
// would bring side-effects on estimating the optimal concurrency range").
//
// Sweeps the fine-grained measurement interval from 10 ms to 1 s and reports
// the SCT estimate each produces against a high-confidence reference
// (a long 50 ms run). Too short: windows hold too few completions, so each
// {Q,TP} tuple is shot-noise; too long: windows average over concurrency
// swings, smearing Q and flattening the curve.
#include <vector>

#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Ablation — monitoring interval for the SCT metrics (paper: 50 ms)",
         "Expectation: estimates stay accurate in a band around 50 ms and "
         "degrade (or fail) at the extremes.");

  // Reference: long window at the paper's 50 ms. Collected together with the
  // seven swept intervals in one fan-out (index 0 is the reference).
  ScatterRunOptions ref_options;
  ref_options.duration = std::min<SimDuration>(env.duration, 360.0);
  ref_options.max_users = 160.0;
  ref_options.fixed_app_vms = 4;

  const std::vector<double> intervals_ms = {10.0,  25.0,  50.0, 100.0,
                                            250.0, 500.0, 1000.0};
  const std::vector<ScatterRunResult> runs = env.map<ScatterRunResult>(
      intervals_ms.size() + 1, [&](std::size_t i) {
        ScatterRunOptions options = ref_options;
        if (i > 0) {
          options.duration = std::min<SimDuration>(env.duration, 120.0);
          options.fine_period = intervals_ms[i - 1] * 1e-3;
        }
        return collect_scatter(env.params, kDbTier, options);
      });

  const ScatterRunResult& reference = runs[0];
  const int ref_q = reference.range ? reference.range->q_lower : -1;
  std::cout << "  reference (50 ms, " << ref_options.duration
            << " s): Q_lower=" << ref_q << "\n\n";

  std::cout << "  interval[ms]  buckets  samples  Q_lower  Q_upper  note\n";
  for (std::size_t i = 0; i < intervals_ms.size(); ++i) {
    const double interval_ms = intervals_ms[i];
    const ScatterRunResult& run = runs[i + 1];
    char buf[160];
    if (run.range) {
      std::snprintf(buf, sizeof(buf),
                    "  %9.0f %9zu %8zu %8d %8d  %s\n", interval_ms,
                    run.range->buckets_used, run.range->samples_used,
                    run.range->q_lower, run.range->q_upper,
                    std::abs(run.range->q_lower - ref_q) <= 4 ? "ok"
                                                              : "drifted");
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  %9.0f        --       --       --       --  no "
                    "estimate (insufficient dense buckets)\n",
                    interval_ms);
    }
    std::cout << buf;
  }
  paper_note("§III-B: 50 ms balances per-window sample mass against "
             "concurrency smearing for sub-millisecond service demands.");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
