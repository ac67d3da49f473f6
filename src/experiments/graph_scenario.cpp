#include "experiments/graph_scenario.h"

#include <cmath>
#include <utility>
#include <vector>

#include "experiments/runner.h"

namespace conscale {

namespace {

using topology::GraphNodeConfig;
using topology::RouteStage;
using topology::ServiceGraphConfig;

/// Analytic per-server concurrency optimum — the paper's Q_lower mechanism:
/// with per-request CPU demand D and thread-held non-CPU time L, one core
/// saturates around (D + L) / D in-flight requests.
int analytic_optimum(double cpu, double held_delay, int cores) {
  if (cpu <= 0.0) return 1;
  return std::max(
      1, static_cast<int>(std::lround(cores * (cpu + held_delay) / cpu)));
}

PhaseDemand phase(double cpu_pre, double cpu_post, double pure_delay,
                  int downstream_calls, double scale) {
  PhaseDemand d;
  d.cpu_pre = cpu_pre * scale;
  d.cpu_post = cpu_post * scale;
  d.pure_delay = pure_delay * scale;
  d.downstream_calls = downstream_calls;
  return d;
}

}  // namespace

GraphScenario make_fanout_scenario(const ScenarioParams& base) {
  GraphScenario scenario;
  scenario.name = "fanout3";
  scenario.base = base;

  const MixParams& m = base.mix;
  const double ws = base.work_scale;

  // ---- topology: Gateway -> {SvcA || SvcB} -> SharedDB ----
  ServiceGraphConfig graph;
  graph.seed = base.seed ^ 0x77;
  GraphNodeConfig gateway =
      base.make_node("Gateway", base.seed ^ 0x11, base.web_contention,
                     base.web_threads, 0, 1, 1, 1);
  gateway.route = {RouteStage{{{1}, {2}}}};  // parallel fan-out, join on both
  GraphNodeConfig svc_a =
      base.make_node("SvcA", base.seed ^ 0x22, base.app_contention,
                     base.app_threads, base.app_dbconn, 1, 1, 6);
  svc_a.route = {RouteStage{{{3}}}};
  GraphNodeConfig svc_b =
      base.make_node("SvcB", base.seed ^ 0x44, base.app_contention,
                     base.app_threads, base.app_dbconn, 1, 1, 6);
  svc_b.route = {RouteStage{{{3}}}};
  GraphNodeConfig db =
      base.make_node("SharedDB", base.seed ^ 0x33, base.db_contention,
                     base.db_threads, 0, 1, 1, 5);
  graph.nodes = {gateway, svc_a, svc_b, db};
  scenario.graph = std::move(graph);

  // ---- request classes (per-node demand vectors) ----
  // SvcA is the heavier service (two backend queries); SvcB is lighter
  // (one query, shorter protocol delay). Both meet at SharedDB.
  const double svc_b_delay = 5.0e-3;
  auto make_class = [&](const std::string& name, double weight,
                        double heaviness) {
    RequestClass c;
    c.name = name;
    c.weight = weight;
    c.demand_cv = m.demand_cv;
    const double s = ws * heaviness;
    c.tiers = {
        phase(m.web_cpu, 0.0, 0.0, 1, s),
        phase(m.app_cpu_pre, m.app_cpu_post, 0.0, 2, s),
        phase(m.app_cpu_pre, 0.5 * m.app_cpu_post, 0.0, 1, s),
        phase(m.db_cpu_browse, 0.0, 0.0, 0, s),
    };
    // Thread-held delays scale with work_scale but not per-class heaviness
    // (protocol time does not grow with payload size here).
    c.tiers[0].pure_delay = m.web_delay * ws;
    c.tiers[1].pure_delay = m.app_delay * ws;
    c.tiers[2].pure_delay = svc_b_delay * ws;
    c.tiers[3].pure_delay = m.db_delay * ws;
    return c;
  };
  std::vector<RequestClass> classes;
  classes.push_back(make_class("Compose", 4.0, 1.0));
  classes.push_back(make_class("Inspect", 2.0, 0.7));
  classes.push_back(make_class("Aggregate", 1.0, 1.5));
  scenario.mix = RequestMix{std::move(classes)};

  // ---- framework wiring: per-node SCT targets ----
  FrameworkConfig config = make_framework_config();
  config.targets.thread_adapt_tiers = {1, 2};
  config.targets.conn_adapt = {{1, 3}, {2, 3}};
  // Analytic profile so DCM (offline-trained) runs on this topology: the
  // per-node Q_lower from the calibrated demands.
  const double db_rt = m.db_cpu_browse + m.db_delay;
  config.dcm_profile.tier_optimal_concurrency = {
      {1, analytic_optimum(m.app_cpu_pre + m.app_cpu_post,
                           m.app_delay + 2.0 * db_rt, 1)},
      {2, analytic_optimum(m.app_cpu_pre + 0.5 * m.app_cpu_post,
                           svc_b_delay + db_rt, 1)},
      {3, analytic_optimum(m.db_cpu_browse, m.db_delay, 1)},
  };
  // Vertical-Robust's default managed set {1, 2} already names SvcA/SvcB.
  scenario.framework = std::move(config);
  return scenario;
}

GraphScenario make_cache_scenario(const ScenarioParams& base) {
  GraphScenario scenario;
  scenario.name = "cache";
  scenario.base = base;

  const MixParams& m = base.mix;
  const double ws = base.work_scale;

  // Memcached-like lookup demands (no MixParams analog; local calibration).
  const double cache_cpu = 0.05e-3;
  const double cache_delay = 0.50e-3;
  const double db_cpu = 0.20e-3;  // uncached queries are heavier than the
                                  // chain's browse queries

  ServiceGraphConfig graph;
  graph.seed = base.seed ^ 0x77;
  GraphNodeConfig frontend =
      base.make_node("Frontend", base.seed ^ 0x11, base.app_contention,
                     base.app_threads, base.app_dbconn, 1, 1, 6);
  frontend.route = {RouteStage{{{1}}}};
  GraphNodeConfig cache =
      base.make_node("Cache", base.seed ^ 0x22, base.web_contention,
                     base.db_threads, base.app_dbconn, 1, 1, 4);
  cache.route = {RouteStage{{{2}}}};
  cache.cache.enabled = true;
  cache.cache.base_hit_ratio = 0.85;
  cache.cache.capacity = 1.0;
  cache.cache.working_set = 1.0;
  cache.cache.churn_period = 240.0;
  cache.cache.churn_amplitude = 0.8;
  GraphNodeConfig db = base.make_node("Db", base.seed ^ 0x33,
                                      base.db_contention, base.db_threads, 0,
                                      1, 1, 5);
  graph.nodes = {frontend, cache, db};
  scenario.graph = std::move(graph);

  auto make_class = [&](const std::string& name, double weight,
                        double heaviness) {
    RequestClass c;
    c.name = name;
    c.weight = weight;
    c.demand_cv = m.demand_cv;
    const double s = ws * heaviness;
    c.tiers = {
        phase(m.app_cpu_pre, m.app_cpu_post, 0.0, 2, s),  // two lookups
        phase(cache_cpu, 0.0, 0.0, 1, s),  // on miss: one backend query
        phase(db_cpu, 0.0, 0.0, 0, s),
    };
    c.tiers[0].pure_delay = m.app_delay * ws;
    c.tiers[1].pure_delay = cache_delay * ws;
    c.tiers[2].pure_delay = m.db_delay * ws;
    return c;
  };
  std::vector<RequestClass> classes;
  classes.push_back(make_class("Read", 4.0, 1.0));
  classes.push_back(make_class("Scan", 1.0, 1.4));
  classes.push_back(make_class("Peek", 3.0, 0.7));
  scenario.mix = RequestMix{std::move(classes)};

  FrameworkConfig config = make_framework_config();
  config.targets.thread_adapt_tiers = {0};
  config.targets.conn_adapt = {{0, 1}, {1, 2}};
  const double cache_rt = cache_cpu + cache_delay;
  const double db_rt = db_cpu + m.db_delay;
  // At the base hit ratio ~15% of lookups continue into the Db; the
  // frontend's thread-held wait per lookup reflects that blend.
  const double lookup_wait = cache_rt + 0.15 * db_rt;
  config.dcm_profile.tier_optimal_concurrency = {
      {0, analytic_optimum(m.app_cpu_pre + m.app_cpu_post,
                           m.app_delay + 2.0 * lookup_wait, 1)},
      {1, analytic_optimum(cache_cpu, cache_delay + 0.15 * db_rt, 1)},
      {2, analytic_optimum(db_cpu, m.db_delay, 1)},
  };
  config.vertical.tiers = {0, 2};  // entitlement on the CPU-bound nodes
  scenario.framework = std::move(config);
  return scenario;
}

GraphScenario make_linear_scenario(const ScenarioParams& base) {
  GraphScenario scenario;
  scenario.name = "linear";
  scenario.base = base;

  scenario.graph = base.system_config();
  scenario.mix = base.make_mix();
  scenario.framework = make_framework_config();
  return scenario;
}

}  // namespace conscale
