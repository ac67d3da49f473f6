// Ablation: the plateau tolerance δ of the SCT estimation phase — how wide
// "statistically at the peak" is. Small δ narrows the rational range (risking
// under-allocation from noise); large δ widens it (risking an optimum deep in
// the ascending stage). The paper does not publish its δ; 0.05 is our
// default. This sweep shows [Q_lower, Q_upper] as a function of δ.
#include <optional>

#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Ablation — plateau tolerance δ in the SCT estimator",
         "Expectation: Q_lower falls and Q_upper rises monotonically in δ.");

  // One shared sample set so only the estimator parameter varies.
  ScatterRunOptions options;
  options.duration = std::min<SimDuration>(env.duration, 240.0);
  options.max_users = 160.0;
  options.fixed_app_vms = 4;
  const ScatterRunResult base = collect_scatter(env.params, kDbTier, options);

  const std::vector<double> deltas = {0.02, 0.03, 0.05, 0.08, 0.12, 0.20};
  // The estimates only re-fold the shared sample set — cheap, but
  // independent, so they ride the same fan-out helper.
  const auto ranges = env.map<std::optional<RationalRange>>(
      deltas.size(), [&](std::size_t i) {
        SctParams params;
        params.plateau_tolerance = deltas[i];
        SctEstimator estimator(params);
        return estimator.estimate(base.scatter);
      });

  std::cout << "  delta   Q_lower  Q_upper  TPmax    descending\n";
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const double delta = deltas[i];
    const auto& range = ranges[i];
    char buf[120];
    if (range) {
      std::snprintf(buf, sizeof(buf), "  %5.2f  %8d %8d %8.0f   %s\n", delta,
                    range->q_lower, range->q_upper, range->tp_max,
                    range->descending_observed ? "observed" : "censored");
    } else {
      std::snprintf(buf, sizeof(buf), "  %5.2f  (no estimate)\n", delta);
    }
    std::cout << buf;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
