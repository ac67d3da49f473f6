// Experiment runners: assemble simulation + system + workload + framework,
// run, and extract the series each figure/table needs.
//
// Two families:
//   run_scaling(...)          the §V evaluation runs (Fig 1/10/11, Table I):
//                             a bursty trace drives a 1/1/1 system managed by
//                             one of the three scaling frameworks.
//   run_concurrency_sweep(...) / collect_scatter(...)
//                             the §II-B / §III profiling experiments
//                             (Fig 3/5/6/7): controlled-concurrency stress of
//                             one target tier, with fine-grained measurement.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "conscale/framework.h"
#include "experiments/scenario.h"
#include "faults/injector.h"
#include "metrics/monitor.h"
#include "sct/estimator.h"
#include "workload/trace.h"

namespace conscale {

// ---------------------------------------------------------------------------
// Scaling experiments (the evaluation section)
// ---------------------------------------------------------------------------

struct ScalingRunOptions {
  SimDuration duration = 720.0;  ///< §V: 12-minute runs
  /// Dataset scale applied to the live mix (≠1 models the system-state drift
  /// of Fig 11: DCM trained on one dataset, run on another).
  double runtime_dataset_scale = 1.0;
  /// Overrides for the framework; absent fields use defaults.
  std::optional<FrameworkConfig> framework_config;
  /// Drive the system with Markov-session users (SessionModel::rubbos_browse)
  /// instead of i.i.d. class draws with exponential think time. Sessions add
  /// the short-range correlation of real navigation; the population still
  /// tracks the trace.
  bool session_workload = false;
  /// Deterministic fault schedule replayed against the run (src/faults).
  /// Empty (the default) injects nothing and leaves the run byte-identical
  /// to one executed without the fault subsystem.
  FaultPlan faults;
};

struct ScalingRunResult {
  std::string framework_name;  ///< display name ("ConScale")
  std::string framework_key;   ///< registry key ("conscale")
  std::string trace_name;
  /// The controller's diagnostic counter map (generic: whatever the plug-in
  /// reports — DecisionController's scale_outs/scale_ins/adapts/stale_skips,
  /// the zoo controllers' own keys).
  ControllerCounters controller_counters;
  // End-to-end timelines (1 s), straight from the warehouse.
  std::vector<SystemSample> system;
  std::map<std::string, std::vector<TierSample>> tiers;
  std::vector<ScalingEvent> events;
  std::vector<ConcurrencyEstimatorService::HistoryEntry> sct_history;
  // Client-perceived response-time distribution for the whole run [ms].
  double mean_rt_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_rt_ms = 0.0;
  /// Fraction of requests answered within 500 ms — the paper's "required
  /// for most web applications" bound (§V, citing Dean & Barroso).
  double sla_500ms = 0.0;
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;
  /// Requests shed by admission control. Always zero unless the graph arms
  /// an AdmissionPolicy (the paper's chain never does).
  std::uint64_t requests_rejected = 0;
  /// Departure/abort hooks seen without a matching admission, summed over
  /// every 50 ms aggregator. Always zero in a correct run — a nonzero value
  /// means a hook-accounting bug is skewing the concurrency integral, and
  /// tests assert on it rather than letting it silently shave Q.
  std::uint64_t hook_underflows = 0;
  // ---- Fault-injection outcome (all zero / empty in fault-free runs) ----
  FaultInjectorStats fault_stats;
  std::vector<FaultWindow> fault_windows;
  /// Canonical text of the injected plan ("" when none) — a result names
  /// the perturbations that produced it.
  std::string fault_plan_text;
  /// Requests errored by VM crashes, summed over every server.
  std::uint64_t requests_aborted = 0;
  /// Samples discarded by monitoring dropouts.
  std::uint64_t dropped_samples = 0;
  /// The full warehouse, for figure-specific drill-downs (per-server 50 ms
  /// series, e.g. Fig 5's MySQL monitoring).
  std::shared_ptr<MetricsWarehouse> warehouse;
};

/// True when two results are observably identical: names, every timeline
/// sample, scaling events, SCT history, fault outcome, and the client-side
/// distribution stats — i.e. everything the reports and JSON/CSV exporters
/// read. On mismatch, `diff` (when non-null) names the first differing
/// field, with the index of the first differing element in a series
/// ("system[12]", "tier Tomcat[3]").
bool results_equivalent(const ScalingRunResult& a, const ScalingRunResult& b,
                        std::string* diff = nullptr);

/// Default framework config: adapts the app-tier thread pool and the
/// app->db connection pool; DCM profile must be supplied by the caller when
/// running "dcm" (see train_dcm_profile).
FrameworkConfig make_framework_config();

/// `framework` is a controller-registry reference — "ec2", "conscale",
/// "pi(target_ms=250)", ... (see conscale/registry.h). Unknown names abort
/// with the registered list.
ScalingRunResult run_scaling(const ScenarioParams& params,
                             const WorkloadTrace& trace,
                             const std::string& framework,
                             const ScalingRunOptions& options = {});

/// Convenience: build the trace from a kind with the scenario's user scale.
ScalingRunResult run_scaling(const ScenarioParams& params, TraceKind trace,
                             const std::string& framework,
                             const ScalingRunOptions& options = {});

// ---------------------------------------------------------------------------
// Profiling experiments (motivation + model sections)
// ---------------------------------------------------------------------------

struct SweepOptions {
  SimDuration settle = 4.0;    ///< discard while the pipeline fills
  SimDuration measure = 20.0;  ///< measurement window per level
  std::size_t fixed_app_vms = 1;
  std::size_t fixed_db_vms = 1;
};

struct SweepPoint {
  int concurrency = 0;       ///< configured level (threads = pool = users)
  double throughput = 0.0;   ///< target-tier completions/s (queries/s for DB)
  double mean_rt_ms = 0.0;   ///< target-tier response time
};

/// Fig 3-style controlled sweep: for each level K, pin the target tier's
/// concurrency to K (K zero-think users, pools sized to K) and measure the
/// target tier's throughput and in-server response time.
std::vector<SweepPoint> run_concurrency_sweep(
    const ScenarioParams& params, std::size_t target_tier,
    const std::vector<int>& levels, const SweepOptions& options = {});

struct ScatterRunOptions {
  SimDuration duration = 120.0;
  double max_users = 120.0;  ///< ramp peak (pre work_scale compression)
  SimDuration fine_period = 0.050;
  std::size_t fixed_app_vms = 1;
  std::size_t fixed_db_vms = 1;
};

struct ScatterRunResult {
  ScatterSet scatter;
  std::vector<StagePoint> stages;
  std::optional<RationalRange> range;
  /// Raw 50 ms samples of the target tier's first server (scatter plots).
  std::vector<IntervalSample> raw_samples;
};

/// Fig 6/7-style run: ramp the offered concurrency through the target
/// tier's whole range, collect 50 ms samples, and run the SCT estimation.
ScatterRunResult collect_scatter(const ScenarioParams& params,
                                 std::size_t target_tier,
                                 const ScatterRunOptions& options = {});

/// "Offline training" for DCM: profiles the app and db tiers under the given
/// (training!) scenario and returns the per-tier optima the offline model
/// would recommend. Fig 11 then runs it under *different* conditions.
DcmProfile train_dcm_profile(const ScenarioParams& params);

}  // namespace conscale
