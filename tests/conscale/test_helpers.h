// Shared fixture pieces for the conscale module tests: a compressed 3-tier
// system with deterministic workload helpers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "conscale/policy.h"
#include "experiments/scenario.h"
#include "metrics/monitor.h"
#include "metrics/warehouse.h"
#include "workload/client.h"

namespace conscale::testing {

/// A policy that records its adapt() invocations.
class SpyPolicy final : public SoftResourcePolicy {
 public:
  std::string name() const override { return "spy"; }
  void adapt(SimTime now) override { calls.push_back(now); }
  std::vector<SimTime> calls;
};

inline ScenarioParams small_scenario() {
  ScenarioParams p = ScenarioParams::test_scale();
  p.vm_prep_delay = 5.0;  // faster tests
  return p;
}

/// System + warehouse + monitor bundle used across conscale tests.
struct Harness {
  explicit Harness(const ScenarioParams& params = small_scenario())
      : scenario(params), mix(params.make_mix()),
        system(sim, params.system_config()),
        warehouse(std::make_shared<MetricsWarehouse>()),
        monitor(sim, system, *warehouse) {}

  /// Drives a constant closed-loop load of `users` (zero think) for later
  /// inspection. Returns the population so the caller can keep it alive.
  std::unique_ptr<ClientPopulation> load(double users, double duration,
                                         double think = 0.0) {
    trace = std::make_unique<WorkloadTrace>(
        make_constant_trace(users, duration + 1.0));
    ClientPopulation::Params cp;
    cp.think_time_mean = think;
    cp.seed = scenario.seed ^ 0xabcd;
    auto clients = std::make_unique<ClientPopulation>(
        sim, *trace, mix,
        [this](const RequestContext& ctx,
               std::function<void(RequestOutcome)> done) {
          system.submit(ctx, std::move(done));
        },
        cp);
    clients->set_completion_hook(
        [this](double rt) { monitor.on_client_completion(rt); });
    return clients;
  }

  Simulation sim;
  ScenarioParams scenario;
  RequestMix mix;
  topology::ServiceGraph system;
  std::shared_ptr<MetricsWarehouse> warehouse;
  MonitoringAgent monitor;
  std::unique_ptr<WorkloadTrace> trace;
};

}  // namespace conscale::testing
