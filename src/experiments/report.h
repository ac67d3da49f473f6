// Report helpers: render run results the way the paper presents them —
// timeline line charts, concurrency-throughput scatter graphs, and tail-
// latency tables — as terminal text, with optional CSV dumps for external
// plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "experiments/runner.h"

namespace conscale {

/// Fig 10/11-style panel: response time + throughput timelines.
void print_performance_timeline(std::ostream& out, const std::string& title,
                                const ScalingRunResult& result);

/// Fig 10(c)/(d)-style panel: per-tier CPU utilization + total VM count.
void print_scaling_timeline(std::ostream& out, const std::string& title,
                            const ScalingRunResult& result);

/// Fig 6/7-style panel: throughput-vs-concurrency scatter with the
/// estimated rational range and stage labels.
void print_scatter_analysis(std::ostream& out, const std::string& title,
                            const ScatterRunResult& result);

/// Fig 3-style panel: throughput and RT versus configured concurrency.
void print_sweep(std::ostream& out, const std::string& title,
                 const std::vector<SweepPoint>& points);

/// One row of Table I.
struct TailRow {
  std::string framework;
  std::string trace;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};
void print_tail_table(std::ostream& out, const std::string& title,
                      const std::vector<TailRow>& rows);

/// Scaling-event log (Fig 10's "Tomcat scales out at ...").
void print_events(std::ostream& out, const std::vector<ScalingEvent>& events);

/// Per-node latency table (tier, server "*" for replicas merged,
/// completions, mean/p50/p95/p99/max in ms), aligned.
void print_node_latency(std::ostream& out,
                        const std::vector<NodeLatency>& rows);

/// CSV dumps (written under `dir`, file name derived from `stem`).
void dump_system_csv(const std::string& path, const ScalingRunResult& result);
void dump_scatter_csv(const std::string& path, const ScatterRunResult& result);
/// One row per realized fault window (kind, start, end, tier) — the shading
/// layer under resilience timelines. Writes a header-only file when the run
/// had no faults.
void dump_fault_windows_csv(const std::string& path,
                            const ScalingRunResult& result);
/// One row per controller counter per run (controller, trace, counter,
/// value) — the generic dump of each run's ControllerCounters map, in map
/// (= alphabetical) order within a run.
void dump_counters_csv(const std::string& path,
                       const std::vector<ScalingRunResult>& results);

}  // namespace conscale
