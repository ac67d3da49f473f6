// quickstart: the smallest end-to-end use of the library.
//
// Builds the RUBBoS-like 3-tier system (1 Apache / 1 Tomcat / 1 MySQL),
// attaches 50 ms monitoring, serves a constant closed-loop workload, runs
// the SCT model over the collected samples, and prints what it learned.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "conscale/estimator_service.h"
#include "experiments/scenario.h"
#include "metrics/monitor.h"
#include "workload/client.h"

using namespace conscale;

int main() {
  // 1. A deterministic simulation and the standard scenario parameters
  //    (hardware, demands, contention — see experiments/scenario.h).
  Simulation sim;
  ScenarioParams params = ScenarioParams::paper_default();
  params.app_init = 2;  // start 1/2/1 so MySQL is the bottleneck tier

  // 2. The three-tier system and its workload mix.
  topology::ServiceGraph system(sim, params.system_config());
  RequestMix mix = params.make_mix();

  // 3. Monitoring: per-server 50 ms {concurrency, throughput, RT} tuples
  //    plus 1 s tier CPU samples, all landing in the warehouse.
  MetricsWarehouse warehouse;
  MonitoringAgent monitor(sim, system, warehouse);

  // 4. A closed-loop population of 2,500 users with 1.5 s think time.
  const WorkloadTrace trace = make_constant_trace(2500.0, 300.0);
  ClientPopulation::Params client_params;
  client_params.think_time_mean = 1.5;
  ClientPopulation clients(
      sim, trace, mix,
      [&system](const RequestContext& ctx,
                std::function<void(RequestOutcome)> done) {
        system.submit(ctx, std::move(done));
      },
      client_params);
  clients.set_completion_hook(
      [&monitor](double rt) { monitor.on_client_completion(rt); });

  // 5. The online Optimal Concurrency Estimator (SCT model, §III).
  ConcurrencyEstimatorService estimator(sim, system, warehouse,
                                        EstimatorServiceParams{});

  // 6. Run five simulated minutes.
  sim.run_until(300.0);

  // 7. Report.
  std::cout << "Ran " << clients.stats().completed << " requests in "
            << sim.now() << " simulated seconds\n";
  const LogHistogram& rts = clients.stats().response_times;
  std::cout << "End-to-end RT: mean=" << to_ms(rts.mean())
            << " ms, p95=" << to_ms(rts.percentile(95.0))
            << " ms, p99=" << to_ms(rts.percentile(99.0)) << " ms\n";

  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    const TierGroup& tier = system.tier(i);
    const TierSample latest = warehouse.latest_tier(tier.name());
    std::cout << tier.name() << ": " << latest.running_vms
              << " VM(s), CPU " << static_cast<int>(
                     latest.avg_cpu_utilization * 100.0)
              << "%\n";
  }

  for (const auto& name : {"Tomcat", "MySQL"}) {
    if (auto range = estimator.tier_estimate(name)) {
      std::cout << "SCT estimate for " << name << ": rational range ["
                << range->q_lower << ", " << range->q_upper
                << "], optimal concurrency " << range->optimal << "\n";
    } else {
      std::cout << "SCT estimate for " << name
                << ": not available (the tier never showed its descending "
                   "stage under this steady load — expected; see §III)\n";
    }
  }
  return 0;
}
