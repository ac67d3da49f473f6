// Ablation: vertical scaling and soft-resource adaptation (§III-C.1).
//
// The paper shows that scaling MySQL from 1 to 2 cores doubles its optimal
// concurrency (Fig 7a vs 7d) — so a framework that adds cores *without*
// adapting the connection pools leaves the new capacity stranded behind a
// concurrency cap sized for the old hardware. This ablation runs a
// MySQL-bound system under sustained load, hot-adds a core at t = T/2, and
// compares throughput and latency with and without SCT-driven re-adaptation.
// Note on method: once a connection-pool cap binds, the production SCT
// window can never observe concurrency beyond it (right-censoring), so the
// new optimum must come from re-profiling — exactly what the SCT model does
// with the ramped measurements it gets after a scaling event in production
// runs. Here we re-profile the 2-core configuration explicitly and apply
// the result, isolating the value of the re-adaptation itself.
#include "bench_common.h"

#include "conscale/agents.h"
#include "conscale/policy.h"
#include "metrics/monitor.h"
#include "workload/client.h"

using namespace conscale;
using namespace conscale::bench;

namespace {

struct Outcome {
  double tp_before = 0.0;  ///< completed req/s in the pre-scaling half
  double tp_after = 0.0;   ///< completed req/s in the post-scaling half
  double p99_after_ms = 0.0;
};

Outcome run_case(const BenchEnv& env, bool adapt_soft,
                 const DcmProfile& two_core_optima) {
  ScenarioParams p = env.params;
  // 1/4/1 with a pool already matched to 1-core MySQL: conn = 5 per Tomcat
  // (4 x 5 = 20 ~ the 1-core optimum), threads at the Tomcat optimum.
  p.web_init = p.web_min = p.web_max = 1;
  p.app_init = p.app_min = p.app_max = 4;
  p.db_init = p.db_min = p.db_max = 1;
  p.app_threads = 30;
  p.app_dbconn = 5;

  Simulation sim;
  RequestMix mix = p.make_mix();
  topology::ServiceGraph system(sim, p.system_config());
  MetricsWarehouse warehouse;
  MonitoringAgent monitor(sim, system, warehouse);
  HardwareAgent hw(sim, system);
  SoftwareAgent sw(sim, system);

  const SimDuration duration = std::min<SimDuration>(env.duration, 480.0);
  // Enough demand to saturate even the 2-core MySQL *if* the pools allow
  // it: the frozen caps then visibly strand the new capacity.
  const double users = 9500.0 / p.work_scale;
  const WorkloadTrace trace = make_constant_trace(users, duration + 1.0);
  ClientPopulation::Params cp;
  cp.think_time_mean = 1.5;
  cp.seed = p.seed;
  ClientPopulation clients(
      sim, trace, mix,
      [&system](const RequestContext& ctx,
                std::function<void(RequestOutcome)> done) {
        system.submit(ctx, std::move(done));
      },
      cp);
  LogHistogram after_rts;
  const SimTime scale_at = duration / 2.0;
  clients.set_completion_hook([&](double rt) {
    if (sim.now() >= scale_at) after_rts.add(rt);
  });

  std::uint64_t completed_before = 0;
  sim.schedule_at(scale_at, [&] {
    completed_before = clients.stats().completed;
    hw.scale_vertical(kDbTier, 2);
    if (adapt_soft) {
      SoftAdaptTargets targets;
      targets.thread_adapt_tiers = {kAppTier};
      targets.conn_adapt = {{kAppTier, kDbTier}};
      DcmPolicy policy(system, sw, targets, two_core_optima);
      policy.adapt(sim.now());
    }
  });
  sim.run_until(duration);

  Outcome outcome;
  outcome.tp_before =
      static_cast<double>(completed_before) / scale_at;
  outcome.tp_after = static_cast<double>(clients.stats().completed -
                                         completed_before) /
                     (duration - scale_at);
  outcome.p99_after_ms = to_ms(after_rts.percentile(99.0));
  return outcome;
}

}  // namespace

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Ablation — vertical scaling without vs with soft adaptation",
         "Fig 7(a)/(d): 2x cores doubles MySQL's optimal concurrency; a "
         "stale connection-pool cap strands the new capacity.");

  // Re-profile the post-scaling (2-core MySQL) configuration with the SCT
  // model to get the new optima the adaptation will apply.
  std::cout << "  profiling the 2-core MySQL configuration with SCT...\n";
  ScenarioParams two_core = env.params;
  two_core.db_cores = 2;
  two_core.work_scale = 1.0;  // profile at native fidelity
  // Both profiling runs are independent — fan them out.
  const auto profiles = env.map<ScatterRunResult>(2, [&](std::size_t i) {
    ScatterRunOptions po;
    po.duration = 180.0;
    if (i == 0) {
      po.max_users = 260.0;  // a 2-core MySQL needs serious pressure
      po.fixed_app_vms = 10;  // and a wide app tier to deliver it
      return collect_scatter(two_core, kDbTier, po);
    }
    po.fixed_db_vms = 4;
    return collect_scatter(two_core, kAppTier, po);
  });
  DcmProfile two_core_optima;
  if (profiles[0].range) {
    two_core_optima.tier_optimal_concurrency[kDbTier] =
        profiles[0].range->optimal;
  }
  if (profiles[1].range) {
    two_core_optima.tier_optimal_concurrency[kAppTier] =
        profiles[1].range->optimal;
  }
  for (const auto& [tier, optimum] :
       two_core_optima.tier_optimal_concurrency) {
    std::cout << "  tier " << tier << " optimum after scale-up: " << optimum
              << "\n";
  }

  const auto outcomes = env.map<Outcome>(2, [&](std::size_t i) {
    return i == 0 ? run_case(env, /*adapt_soft=*/false, {})
                  : run_case(env, /*adapt_soft=*/true, two_core_optima);
  });
  const Outcome& frozen = outcomes[0];
  const Outcome& adapted = outcomes[1];

  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "  frozen pools : %7.0f -> %7.0f req/s after scale-up "
                "(p99 after: %5.0f ms)\n",
                frozen.tp_before, frozen.tp_after, frozen.p99_after_ms);
  std::cout << buf;
  std::snprintf(buf, sizeof(buf),
                "  SCT adaptation: %7.0f -> %7.0f req/s after scale-up "
                "(p99 after: %5.0f ms)\n",
                adapted.tp_before, adapted.tp_after, adapted.p99_after_ms);
  std::cout << buf;
  const double gain = frozen.tp_after > 0.0
                          ? (adapted.tp_after / frozen.tp_after - 1.0) * 100.0
                          : 0.0;
  std::snprintf(buf, sizeof(buf),
                "  post-scale-up throughput gain from adapting the pools: "
                "%+.0f%%\n", gain);
  std::cout << buf;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
