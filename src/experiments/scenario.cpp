#include "experiments/scenario.h"

namespace conscale {

topology::GraphNodeConfig ScenarioParams::make_node(
    const std::string& name, std::uint64_t node_seed,
    const ContentionModel& contention, std::size_t threads,
    std::size_t downstream_pool, std::size_t min_vms, std::size_t init_vms,
    std::size_t max_vms, int cores) const {
  topology::GraphNodeConfig node;
  node.tier.name = name;
  node.tier.server_template.cores = cores;
  node.tier.server_template.contention = contention;
  node.tier.server_template.thread_pool_size = threads;
  node.tier.server_template.downstream_pool_size = downstream_pool;
  node.tier.server_template.seed = node_seed;
  node.tier.vm_prep_delay = vm_prep_delay;
  node.tier.lb_policy = lb_policy;
  node.tier.min_vms = min_vms;
  node.tier.max_vms = max_vms;
  node.initial_vms = init_vms;
  return node;
}

topology::ServiceGraphConfig ScenarioParams::system_config() const {
  topology::ServiceGraphConfig config;
  config.seed = seed ^ 0x77;  // no cache node ever draws from it
  // Apache calls into Tomcat ungated (no downstream pool); Tomcat's
  // connection pool gates its MySQL queries.
  config.nodes = {
      make_node("Apache", seed ^ 0x11, web_contention, web_threads, 0,
                web_min, web_init, web_max, web_cores),
      make_node("Tomcat", seed ^ 0x22, app_contention, app_threads,
                app_dbconn, app_min, app_init, app_max, app_cores),
      make_node("MySQL", seed ^ 0x33, db_contention, db_threads, 0, db_min,
                db_init, db_max, db_cores),
  };
  config.nodes[kWebTier].route = {topology::RouteStage{{{kAppTier}}}};
  config.nodes[kAppTier].route = {topology::RouteStage{{{kDbTier}}}};
  return config;
}

RequestMix ScenarioParams::make_mix() const {
  MixParams p = mix;
  p.work_scale = work_scale;
  // dataset_scale is carried inside MixParams; callers adjust mix.dataset_scale.
  switch (mode) {
    case WorkloadMode::kBrowseOnly:
      return make_browse_only_mix(p);
    case WorkloadMode::kReadWriteMix:
      return make_read_write_mix(p);
  }
  return make_browse_only_mix(p);
}

ScenarioParams ScenarioParams::paper_default() { return ScenarioParams{}; }

ScenarioParams ScenarioParams::test_scale() {
  ScenarioParams params;
  params.work_scale = 8.0;
  params.max_users = 7500.0;
  return params;
}

}  // namespace conscale
