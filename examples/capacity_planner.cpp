// capacity_planner: uses the simulator as a what-if tool — the offline
// counterpart of the paper's online problem. Given a target peak workload
// and an SLA (p99 bound), it searches topology space (#App/#DB) and, for
// each hardware plan, compares the out-of-the-box soft allocation with the
// SCT-recommended one. Shows that "enough VMs" still misses the SLA when
// soft resources are wrong — the paper's core observation, §I.
//
// Usage:
//   capacity_planner [peak_users=6000] [sla_p99_ms=500] [work_scale=1]
//                    [duration=180] [max_app=5] [max_db=4]
#include <iostream>
#include <optional>

#include "common/config.h"
#include "experiments/runner.h"
#include "workload/client.h"

using namespace conscale;

namespace {

struct PlanResult {
  double p99_ms = 0.0;
  double throughput = 0.0;
};

PlanResult evaluate(const ScenarioParams& base, std::size_t app_vms,
                    std::size_t db_vms, double users, SimDuration duration,
                    std::optional<DcmProfile> soft_plan) {
  ScenarioParams p = base;
  p.app_init = p.app_min = p.app_max = app_vms;
  p.db_init = p.db_min = p.db_max = db_vms;

  Simulation sim;
  RequestMix mix = p.make_mix();
  topology::ServiceGraph system(sim, p.system_config());
  if (soft_plan) {
    // Apply the SCT-derived soft allocation before the run begins.
    auto it = soft_plan->tier_optimal_concurrency.find(kAppTier);
    if (it != soft_plan->tier_optimal_concurrency.end()) {
      system.tier(kAppTier).set_thread_pool_size(
          static_cast<std::size_t>(it->second));
    }
    it = soft_plan->tier_optimal_concurrency.find(kDbTier);
    if (it != soft_plan->tier_optimal_concurrency.end()) {
      const double per_app = static_cast<double>(it->second) *
                             static_cast<double>(db_vms) /
                             static_cast<double>(app_vms);
      system.tier(kAppTier).set_downstream_pool_size(
          static_cast<std::size_t>(per_app > 1.0 ? per_app : 1.0));
    }
  }

  const WorkloadTrace trace = make_constant_trace(users, duration + 1.0);
  ClientPopulation::Params cp;
  cp.think_time_mean = 1.5;
  cp.seed = p.seed ^ (app_vms * 131 + db_vms);
  ClientPopulation clients(
      sim, trace, mix,
      [&system](const RequestContext& ctx,
                std::function<void(RequestOutcome)> done) {
        system.submit(ctx, std::move(done));
      },
      cp);
  sim.run_until(duration);

  PlanResult result;
  result.p99_ms = to_ms(clients.stats().response_times.percentile(99.0));
  result.throughput =
      static_cast<double>(clients.stats().completed) / duration;
  return result;
}

}  // namespace

int main(int argc, char** argv) try {
  const Config config = Config::from_args(argc, argv);
  config.require_known_keys({"work_scale", "peak_users", "sla_p99_ms",
                             "duration", "max_app", "max_db"});
  ScenarioParams params = ScenarioParams::paper_default();
  params.work_scale = config.get_double("work_scale", 1.0);
  const double peak_users =
      config.get_double("peak_users", 6000.0) / params.work_scale;
  const double sla = config.get_double("sla_p99_ms", 500.0);
  const SimDuration duration = config.get_double("duration", 180.0);
  const auto max_app = static_cast<std::size_t>(config.get_int("max_app", 5));
  const auto max_db = static_cast<std::size_t>(config.get_int("max_db", 4));

  std::cout << "Capacity planning for " << peak_users << " users, SLA p99 <= "
            << sla << " ms\n";
  std::cout << "Profiling soft-resource optima with the SCT model...\n";
  const DcmProfile sct_plan = train_dcm_profile(params);
  for (const auto& [tier, optimum] : sct_plan.tier_optimal_concurrency) {
    std::cout << "  tier " << tier << " optimal concurrency: " << optimum
              << "\n";
  }

  std::cout << "\n  #App #DB | default soft (1000-60-40) | SCT-tuned soft\n";
  std::cout << "           |  p99[ms]  tp[req/s]  SLA   |  p99[ms]  "
               "tp[req/s]  SLA\n";
  bool found = false;
  for (std::size_t app = 1; app <= max_app; ++app) {
    for (std::size_t db = 1; db <= max_db; ++db) {
      const PlanResult plain =
          evaluate(params, app, db, peak_users, duration, std::nullopt);
      const PlanResult tuned =
          evaluate(params, app, db, peak_users, duration, sct_plan);
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "  %4zu %3zu | %8.0f %9.0f  %-4s | %8.0f %9.0f  %-4s\n",
                    app, db, plain.p99_ms, plain.throughput,
                    plain.p99_ms <= sla ? "MET" : "miss", tuned.p99_ms,
                    tuned.throughput, tuned.p99_ms <= sla ? "MET" : "miss");
      std::cout << buf;
      if (!found && tuned.p99_ms <= sla) {
        found = true;
        std::cout << "  ^ smallest plan meeting the SLA with SCT-tuned soft "
                     "resources\n";
      }
    }
  }
  if (!found) {
    std::cout << "  no plan within the search bounds met the SLA\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
