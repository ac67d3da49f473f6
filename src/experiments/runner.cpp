#include "experiments/runner.h"

#include <algorithm>
#include <cmath>

#include "experiments/graph_runner.h"
#include "experiments/run_assembly.h"
#include "workload/client.h"

namespace conscale {

namespace {

bool differs(std::string* diff, std::string field) {
  if (diff) *diff = std::move(field);
  return false;
}

bool same(bool equal, const char* field, std::string* diff) {
  return equal || differs(diff, field);
}

/// Element-wise equality of two series; a mismatch names the first
/// differing index ("system[12]").
template <typename T>
bool same_series(const std::vector<T>& a, const std::vector<T>& b,
                 const std::string& name, std::string* diff) {
  if (a.size() != b.size()) return differs(diff, name + " length");
  const auto first = std::mismatch(a.begin(), a.end(), b.begin()).first;
  if (first == a.end()) return true;
  return differs(diff, name + "[" + std::to_string(first - a.begin()) + "]");
}

}  // namespace

bool results_equivalent(const ScalingRunResult& a, const ScalingRunResult& b,
                        std::string* diff) {
  if (!same(a.framework_name == b.framework_name, "framework_name", diff) ||
      !same(a.framework_key == b.framework_key, "framework_key", diff) ||
      !same(a.trace_name == b.trace_name, "trace_name", diff) ||
      !same(a.controller_counters == b.controller_counters,
            "controller_counters", diff) ||
      !same_series(a.system, b.system, "system", diff) ||
      !same(a.tiers.size() == b.tiers.size(), "tier count", diff)) {
    return false;
  }
  for (const auto& [name, series] : a.tiers) {
    const auto it = b.tiers.find(name);
    if (it == b.tiers.end()) return differs(diff, "missing tier " + name);
    if (!same_series(series, it->second, "tier " + name, diff)) return false;
  }
  return same_series(a.events, b.events, "events", diff) &&
         same_series(a.sct_history, b.sct_history, "sct_history", diff) &&
         same(a.mean_rt_ms == b.mean_rt_ms, "mean_rt_ms", diff) &&
         same(a.p50_ms == b.p50_ms, "p50_ms", diff) &&
         same(a.p95_ms == b.p95_ms, "p95_ms", diff) &&
         same(a.p99_ms == b.p99_ms, "p99_ms", diff) &&
         same(a.max_rt_ms == b.max_rt_ms, "max_rt_ms", diff) &&
         same(a.sla_500ms == b.sla_500ms, "sla_500ms", diff) &&
         same(a.requests_issued == b.requests_issued, "requests_issued",
              diff) &&
         same(a.requests_completed == b.requests_completed,
              "requests_completed", diff) &&
         same(a.requests_rejected == b.requests_rejected, "requests_rejected",
              diff) &&
         same(a.hook_underflows == b.hook_underflows, "hook_underflows",
              diff) &&
         same(a.fault_plan_text == b.fault_plan_text, "fault_plan_text",
              diff) &&
         same(a.requests_aborted == b.requests_aborted, "requests_aborted",
              diff) &&
         same(a.dropped_samples == b.dropped_samples, "dropped_samples",
              diff) &&
         same(a.fault_stats == b.fault_stats, "fault_stats", diff) &&
         same_series(a.fault_windows, b.fault_windows, "fault_windows", diff);
}

bool graph_results_equivalent(const GraphRunResult& a, const GraphRunResult& b,
                              std::string* diff) {
  return results_equivalent(a.run, b.run, diff) &&
         same(a.admission == b.admission, "admission", diff) &&
         same_series(a.caches, b.caches, "caches", diff) &&
         same_series(a.node_latency, b.node_latency, "node_latency", diff);
}

FrameworkConfig make_framework_config() {
  FrameworkConfig config;
  config.targets.thread_adapt_tiers = {kAppTier};
  config.targets.conn_adapt = {{kAppTier, kDbTier}};
  config.controller.tick = 1.0;
  // Re-apply the policy's recommendation on a slow cadence as well as at
  // scaling events, so a crunch that develops *between* hardware actions
  // still gets its soft resources adapted promptly (the estimator is
  // asynchronous, Fig 8).
  config.controller.periodic_adapt = 10.0;
  config.estimator.window = 180.0;
  config.estimator.refresh = 5.0;
  return config;
}

ScalingRunResult run_scaling(const ScenarioParams& params, TraceKind kind,
                             const std::string& framework,
                             const ScalingRunOptions& options) {
  return run_scaling(params, make_run_trace(params, kind, options.duration),
                     framework, options);
}

ScalingRunResult run_scaling(const ScenarioParams& params,
                             const WorkloadTrace& trace,
                             const std::string& framework_ref,
                             const ScalingRunOptions& options) {
  return run_graph_scaling(make_linear_scenario(params), trace, framework_ref,
                           options)
      .run;
}

namespace {

/// Scenario tuned for profiling: fixed topology, no autoscaling headroom.
ScenarioParams profiling_params(const ScenarioParams& base,
                                std::size_t app_vms, std::size_t db_vms) {
  ScenarioParams p = base;
  p.web_init = p.web_min = p.web_max = 1;
  p.app_init = p.app_min = p.app_max = app_vms;
  p.db_init = p.db_min = p.db_max = db_vms;
  return p;
}

}  // namespace

std::vector<SweepPoint> run_concurrency_sweep(
    const ScenarioParams& params, std::size_t target_tier,
    const std::vector<int>& levels, const SweepOptions& options) {
  std::vector<SweepPoint> points;
  points.reserve(levels.size());
  for (int level : levels) {
    ScenarioParams p =
        profiling_params(params, options.fixed_app_vms, options.fixed_db_vms);
    const auto k = static_cast<std::size_t>(std::max(level, 1));
    // Pin the target tier's processing concurrency to `level`: exactly
    // `level` zero-think users, and pool sizes that neither gate below nor
    // queue above it (§II-B: "we configure the same concurrency setting for
    // the corresponding server to avoid queue overflow").
    p.web_threads = 4096;
    if (target_tier == kWebTier) {
      p.web_threads = k;
    } else if (target_tier == kAppTier) {
      p.app_threads = k;
      p.app_dbconn = std::max<std::size_t>(k, 1);
    } else {
      p.app_threads = 4096;
      const std::size_t per_app =
          (k + options.fixed_app_vms - 1) / options.fixed_app_vms;
      p.app_dbconn = std::max<std::size_t>(per_app, 1);
      p.db_threads = std::max<std::size_t>(k, 1);
    }

    Simulation sim;
    RequestMix mix = p.make_mix();
    topology::ServiceGraph system(sim, p.system_config());
    ClientPopulation::Params cp;
    cp.think_time_mean = 0.0;  // §II-B: zero think time
    cp.seed = p.seed ^ (0x5eed + static_cast<std::uint64_t>(level));
    const WorkloadTrace trace = make_constant_trace(
        static_cast<double>(level), options.settle + options.measure + 1.0);
    ClientPopulation clients(
        sim, trace, mix,
        [&system](const RequestContext& ctx,
                  std::function<void(RequestOutcome)> done) {
          system.submit(ctx, std::move(done));
        },
        cp);

    // Target-tier measurement hooks with a warmup gate.
    bool measuring = false;
    std::uint64_t completions = 0;
    double rt_sum = 0.0;
    for (Vm* vm : system.tier(target_tier).all_vms()) {
      Server::Hooks hooks;
      hooks.on_departed = [&](SimTime, double rt) {
        if (!measuring) return;
        ++completions;
        rt_sum += rt;
      };
      vm->server().add_hooks(std::move(hooks));
    }
    sim.schedule_at(options.settle, [&measuring] { measuring = true; });
    sim.run_until(options.settle + options.measure);

    SweepPoint point;
    point.concurrency = level;
    point.throughput = static_cast<double>(completions) / options.measure;
    point.mean_rt_ms =
        completions ? to_ms(rt_sum / static_cast<double>(completions)) : 0.0;
    points.push_back(point);
  }
  return points;
}

ScatterRunResult collect_scatter(const ScenarioParams& params,
                                 std::size_t target_tier,
                                 const ScatterRunOptions& options) {
  ScenarioParams p =
      profiling_params(params, options.fixed_app_vms, options.fixed_db_vms);
  // Open every soft resource wide so the offered load, not a pool, sets the
  // target tier's concurrency — the scatter must cover all three stages.
  p.web_threads = 4096;
  p.app_threads = 1024;
  p.app_dbconn = 1024;
  p.db_threads = 2048;

  Simulation sim;
  RequestMix mix = p.make_mix();
  topology::ServiceGraph system(sim, p.system_config());
  auto warehouse = std::make_shared<MetricsWarehouse>();
  MonitoringParams mp;
  // The 50 ms interval is matched to the paper's sub-millisecond service
  // demands; when work_scale stretches every demand, the measurement window
  // must stretch with it or per-window completion counts (and thus the
  // statistical quality of each {Q,TP} tuple) collapse.
  mp.fine_period = options.fine_period * p.work_scale;
  MonitoringAgent monitor(sim, system, *warehouse, mp);

  ClientPopulation::Params cp;
  cp.think_time_mean = 0.0;
  cp.seed = p.seed ^ 0x5ca7;
  const WorkloadTrace trace =
      make_ramp_trace(1.0, options.max_users, options.duration);
  ClientPopulation clients(
      sim, trace, mix,
      [&system](const RequestContext& ctx,
                std::function<void(RequestOutcome)> done) {
        system.submit(ctx, std::move(done));
      },
      cp);

  sim.run_until(options.duration);

  ScatterRunResult result;
  bool first = true;
  for (Vm* vm : system.tier(target_tier).all_vms()) {
    const auto& series = warehouse->server_series(vm->name());
    result.scatter.add_all(series);
    if (first) {
      result.raw_samples = series;
      first = false;
    }
  }
  SctEstimator estimator;
  result.range = estimator.estimate(result.scatter);
  result.stages = estimator.classify(result.scatter);
  return result;
}

DcmProfile train_dcm_profile(const ScenarioParams& params) {
  // Offline profiling runs at native demand scale regardless of the
  // production run's work_scale: the optima are concurrency counts, which
  // depend only on demand *ratios*, and the native scale gives the profiler
  // the most samples per concurrency level.
  ScenarioParams training = params;
  training.work_scale = 1.0;

  DcmProfile profile;
  // Profile the app tier with a wide DB tier so Tomcat is the single
  // bottleneck (the paper's 1/1/4), and vice versa for MySQL.
  {
    ScatterRunOptions options;
    options.duration = 180.0;
    options.fixed_db_vms = 4;
    auto run = collect_scatter(training, kAppTier, options);
    if (run.range) {
      profile.tier_optimal_concurrency[kAppTier] = run.range->optimal;
    }
  }
  {
    ScatterRunOptions options;
    options.duration = 180.0;
    options.max_users = 140.0;
    options.fixed_app_vms = 4;
    auto run = collect_scatter(training, kDbTier, options);
    if (run.range) {
      profile.tier_optimal_concurrency[kDbTier] = run.range->optimal;
    }
  }
  return profile;
}

}  // namespace conscale
