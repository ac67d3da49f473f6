#include "experiments/run_assembly.h"

#include "workload/client.h"
#include "workload/session_population.h"

namespace conscale {

WorkloadTrace make_run_trace(const ScenarioParams& base, TraceKind kind,
                             SimDuration duration) {
  TraceParams tp;
  tp.duration = duration;
  tp.max_users = base.scaled_users(base.max_users);
  tp.seed = base.seed ^ 0xbeef;
  return make_trace(kind, tp);
}

GraphRunResult assemble_run(const GraphScenario& scenario,
                            const WorkloadTrace& trace,
                            const std::string& framework_ref,
                            const ScalingRunOptions& options,
                            const LanedRunOptions* laned,
                            LaneRunInfo* info) {
  // Construction order is part of the result: every RNG consumer and every
  // event source must be built and seeded in the same sequence on every
  // path. Serial runs execute on a plain Simulation — a one-lane engine
  // would bring the laned workload's client network delay and change every
  // serial result; laned runs execute on the lane engine, whose cell 0
  // hosts the control plane.
  const ScenarioParams& base = scenario.base;
  CellPlan plan;
  std::unique_ptr<lanes::LaneEngine> engine;
  std::unique_ptr<Simulation> serial_sim;
  if (laned) {
    plan = plan_cells(scenario, *laned);
    engine = make_lane_engine(*laned, plan);
  } else {
    serial_sim = std::make_unique<Simulation>();
  }
  Simulation& sim = engine ? engine->lane(0).sim() : *serial_sim;

  RequestMix mix = scenario.mix;
  if (options.runtime_dataset_scale != 1.0) {
    mix.apply_dataset_scale(options.runtime_dataset_scale);
  }

  std::unique_ptr<topology::ServiceGraph> system_ptr;
  if (plan.tiered) {
    system_ptr = std::make_unique<topology::ServiceGraph>(
        *engine, scenario.graph, laned->lan_delay);
  } else {
    system_ptr = std::make_unique<topology::ServiceGraph>(sim, scenario.graph);
  }
  topology::ServiceGraph& system = *system_ptr;
  auto warehouse = std::make_shared<MetricsWarehouse>();
  MonitoringParams monitoring;
  // Keep the fine interval matched to the service-demand scale (see the
  // same adjustment in collect_scatter): at work_scale k, "50 ms" means
  // 50k ms or each window holds k× fewer completions than the paper's.
  monitoring.fine_period *= base.work_scale;
  MonitoringAgent monitor(sim, system, *warehouse, monitoring);

  const FrameworkConfig& config = options.framework_config
                                      ? *options.framework_config
                                      : scenario.framework;
  ScalingFramework framework(sim, system, *warehouse, framework_ref, config);

  auto submit = [&system](const RequestContext& request,
                          std::function<void(RequestOutcome)> done) {
    system.submit(request, std::move(done));
  };
  auto on_completion = [&monitor](double rt) {
    monitor.on_client_completion(rt);
  };
  auto on_rejection = [&monitor] { monitor.on_client_rejection(); };
  std::unique_ptr<LaneGateway> gateway;
  std::vector<std::unique_ptr<SessionShard>> shards;
  std::unique_ptr<SessionModel> session_model;
  std::unique_ptr<SessionPopulation> sessions;
  std::unique_ptr<ClientPopulation> clients;
  if (laned) {
    gateway = std::make_unique<LaneGateway>(*engine, plan.entry_cell, submit,
                                            laned->net_delay);
    gateway->set_completion_hook(on_completion);
    gateway->set_rejection_hook(on_rejection);
    shards = make_shards(*engine, base, trace, mix, *gateway, plan);
  } else if (options.session_workload) {
    session_model =
        std::make_unique<SessionModel>(SessionModel::rubbos_browse(mix));
    SessionPopulation::Params session_params;
    session_params.seed = base.seed ^ 0xc11e;
    sessions = std::make_unique<SessionPopulation>(
        sim, trace, mix, *session_model, submit, session_params);
    sessions->set_completion_hook(on_completion);
    sessions->set_rejection_hook(on_rejection);
  } else {
    ClientPopulation::Params client_params;
    client_params.think_time_mean = base.think_time;
    client_params.seed = base.seed ^ 0xc11e;
    clients = std::make_unique<ClientPopulation>(sim, trace, mix, submit,
                                                 client_params);
    clients->set_completion_hook(on_completion);
    clients->set_rejection_hook(on_rejection);
  }

  // Fault injection is opt-in per run: with an empty plan no injector is
  // even constructed, so fault-free runs execute the exact event sequence
  // they did before the subsystem existed. On a tier-laned run the injector
  // lives on the control cell, whose instants the engine serializes — the
  // same guarantee that lets controllers mutate remote tiers.
  std::unique_ptr<FaultInjector> injector;
  if (!options.faults.empty()) {
    injector = std::make_unique<FaultInjector>(sim, system, warehouse.get(),
                                               options.faults);
    injector->arm();
  }

  if (engine) {
    engine->run(options.duration);
  } else {
    sim.run_until(options.duration);
  }

  GraphRunResult result;
  ScalingRunResult& run = result.run;
  run.framework_name = framework.name();
  run.framework_key = framework.key();
  run.trace_name = trace.name();
  run.controller_counters = framework.controller().counters();
  run.system = warehouse->system_series();
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    const std::string& name = system.tier(i).name();
    run.tiers[name] = warehouse->tier_series(name);
  }
  run.events = framework.all_events();
  if (auto* estimator = framework.estimator_service()) {
    run.sct_history = estimator->history();
  }
  // One of the three workloads ran; make_shards filled `shards` in
  // shard-index order, so their merge is independent of the thread count.
  ClientStats stats;
  if (clients) stats.merge(clients->stats());
  if (sessions) stats.merge(sessions->stats());
  for (const auto& shard : shards) stats.merge(shard->stats());
  const LogHistogram& rts = stats.response_times;
  run.mean_rt_ms = to_ms(rts.mean());
  run.p50_ms = to_ms(rts.percentile(50.0));
  run.p95_ms = to_ms(rts.percentile(95.0));
  run.p99_ms = to_ms(rts.percentile(99.0));
  run.max_rt_ms = to_ms(rts.max_recorded());
  run.sla_500ms = rts.fraction_below(0.5);
  run.requests_issued = stats.issued;
  run.requests_completed = stats.completed;
  run.requests_rejected = stats.rejected;
  run.hook_underflows = monitor.hook_underflows();
  if (injector) {
    run.fault_stats = injector->stats();
    run.fault_windows = injector->windows();
    run.fault_plan_text = injector->plan().to_text();
    run.requests_aborted = system.total_aborted_requests();
    run.dropped_samples = warehouse->dropped_samples();
  }
  run.warehouse = std::move(warehouse);

  result.admission = system.admission_stats();
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    if (scenario.graph.nodes[i].cache.enabled) {
      result.caches.emplace_back(system.tier(i).name(),
                                 system.cache_stats(i));
    }
  }
  result.node_latency = monitor.node_latency();
  if (engine && info) {
    info->stats = engine->stats();
    info->lookahead = engine->lookahead();
    info->lanes = engine->lane_count();
    info->threads = engine->thread_count();
    info->shards = plan.shard_count;
    info->placement = plan.summary;
    info->active_sessions = 0;
    for (const auto& shard : shards) {
      info->active_sessions += shard->active_users();
    }
  }
  return result;
}

}  // namespace conscale
