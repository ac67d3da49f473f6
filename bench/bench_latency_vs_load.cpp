// Latency versus offered load: the classic open-loop capacity curve for the
// 3-tier system, with soft resources at the static default (1000-60-40) vs
// SCT-tuned. Complements the paper's closed-loop experiments: closed loops
// self-throttle when the system slows, open-loop arrivals do not — the knee
// of this curve is the honest capacity of the deployment.
#include "bench_common.h"

#include "workload/open_loop.h"

using namespace conscale;
using namespace conscale::bench;

namespace {

struct Point {
  double offered = 0.0;
  double achieved = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

Point run_at(const ScenarioParams& base, double rate, SimDuration duration,
             const DcmProfile* tuned) {
  ScenarioParams p = base;
  p.web_init = p.web_min = p.web_max = 1;
  p.app_init = p.app_min = p.app_max = 2;
  p.db_init = p.db_min = p.db_max = 1;

  Simulation sim;
  RequestMix mix = p.make_mix();
  topology::ServiceGraph system(sim, p.system_config());
  if (tuned) {
    auto it = tuned->tier_optimal_concurrency.find(kAppTier);
    if (it != tuned->tier_optimal_concurrency.end()) {
      system.tier(kAppTier).set_thread_pool_size(
          static_cast<std::size_t>(it->second));
    }
    it = tuned->tier_optimal_concurrency.find(kDbTier);
    if (it != tuned->tier_optimal_concurrency.end()) {
      system.tier(kAppTier).set_downstream_pool_size(
          std::max<std::size_t>(static_cast<std::size_t>(it->second) / 2, 1));
    }
  }
  const WorkloadTrace rate_trace = make_constant_trace(rate, duration + 1.0);
  OpenLoopGenerator gen(
      sim, rate_trace, mix,
      [&system](const RequestContext& ctx,
                std::function<void(RequestOutcome)> done) {
        system.submit(ctx, std::move(done));
      },
      {});
  sim.run_until(duration);

  Point point;
  point.offered = rate;
  point.achieved = static_cast<double>(gen.stats().completed) / duration;
  point.p50_ms = to_ms(gen.stats().response_times.percentile(50.0));
  point.p99_ms = to_ms(gen.stats().response_times.percentile(99.0));
  return point;
}

}  // namespace

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Capacity curve — open-loop latency vs offered load (1/2/1)",
         "Expectation: flat latency until the knee, then the hockey stick; "
         "SCT-tuned pools shift the knee right of the 1000-60-40 default.");

  const SimDuration duration = std::min<SimDuration>(env.duration, 120.0);
  std::cout << "  profiling SCT optima for the tuned configuration...\n";
  const DcmProfile tuned = train_dcm_profile(env.params);

  std::cout << "\n  offered[r/s] | default: achieved  p50    p99   | tuned: "
               "achieved  p50    p99\n";
  // 1/2/1 nominal capacity ~ 2 Tomcats = ~3.3k req/s, MySQL ~3.8k.
  for (double rate : {500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3300.0,
                      3600.0}) {
    const double r = rate / env.params.work_scale;
    const Point plain = run_at(env.params, r, duration, nullptr);
    const Point smart = run_at(env.params, r, duration, &tuned);
    char buf[180];
    std::snprintf(buf, sizeof(buf),
                  "  %10.0f   | %10.0f %5.0fms %6.0fms | %10.0f %5.0fms "
                  "%6.0fms\n",
                  rate, plain.achieved * env.params.work_scale, plain.p50_ms,
                  plain.p99_ms, smart.achieved * env.params.work_scale,
                  smart.p50_ms, smart.p99_ms);
    std::cout << buf;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
