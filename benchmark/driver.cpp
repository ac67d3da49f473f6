// cs_bench: the repo benchmark's driver (benchmark/README.md).
//
// Runs one workload as a closed loop of simulation runs for a fixed host
// time and prints one JSON object of raw measurements on stdout; run.py
// turns it into metrics. A pass submits every cell of the workload to
// `jobs` workers (each takes the next cell when its last one finishes) and
// ends when all cells are done; passes repeat until `seconds` of host time
// have elapsed. The 1-thread reference runs and the set-up phase follow.
// Only the public runners (run_scaling, run_graph_scaling and their _laned
// twins) are called, and every clock read is taken here, around those calls
// — never inside the model.
//
// Every run is checked: it must not throw, must satisfy the run invariants
// (no hook underflow, completed <= issued, every configured session still
// alive at the end of a laned run), must reproduce its first pass bit for
// bit, and a laned run must equal its 1-thread reference. run.py adds the
// golden-digest check.
//
// Keys: workload= seed= seconds= threads= setup_batches= reference=0|1
#include <sys/resource.h>

#include <algorithm>
#include <chrono>  // detlint: allow(banned-api) host-time measurement of whole runs; never feeds model time
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/json.h"
#include "experiments/graph_runner.h"
#include "experiments/graph_scenario.h"
#include "experiments/json_export.h"
#include "experiments/laned_runner.h"
#include "experiments/parallel.h"
#include "experiments/runner.h"

namespace conscale {
namespace {

using Clock = std::chrono::steady_clock;  // detlint: allow(banned-api) host-time measurement only

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start)  // detlint: allow(banned-api) host-time measurement only
      .count();
}

/// User+system CPU seconds of the whole process (RUSAGE_SELF) or of the
/// calling thread (RUSAGE_THREAD).
double cpu_seconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fnv1a_hex(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << hash;
  return out.str();
}

/// What one simulation run produced. Chain runs fill graph.run only.
struct Outcome {
  GraphRunResult graph;
  bool is_graph = false;
  bool laned = false;
  LaneRunInfo info;
};

/// The digest and counts the benchmark reports for one run.
struct RunRecord {
  std::string cell;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string digest;
  double p99_ms = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t sct_estimates = 0;
  std::uint64_t samples = 0;
  std::uint64_t actions = 0;
  bool laned = false;
  LaneRunInfo info;
  /// Empty when every check passed.
  std::string failure;
};

struct Cell {
  std::string name;
  std::function<Outcome(SimDuration duration, std::size_t threads)> run;
};

struct Workload {
  /// Submission order: longest first, so a pass's makespan does not depend
  /// on which worker draws the straggler.
  std::vector<Cell> cells;
  SimDuration duration = 0.0;
  /// Runs in flight at once.
  std::size_t jobs = 1;
  /// Threads inside one laned run (0 for serial runs).
  std::size_t lane_threads = 0;
  /// Sessions every laned run must still hold at its end.
  std::uint64_t sessions = 0;
};

bool equivalent(const Outcome& a, const Outcome& b, std::string* diff) {
  return a.is_graph ? graph_results_equivalent(a.graph, b.graph, diff)
                    : results_equivalent(a.graph.run, b.graph.run, diff);
}

RunRecord summarize(const std::string& cell, const Outcome& outcome,
                    const Workload& workload) {
  const ScalingRunResult& run = outcome.graph.run;
  RunRecord record;
  record.cell = cell;
  std::ostringstream json;
  export_run_json(json, run);
  record.digest = fnv1a_hex(json.str());
  record.p99_ms = run.p99_ms;
  record.issued = run.requests_issued;
  record.completed = run.requests_completed;
  record.sct_estimates = run.sct_history.size();
  for (const std::string& server : run.warehouse->server_names()) {
    record.samples += run.warehouse->server_series(server).size();
  }
  record.actions = run.events.size();
  record.laned = outcome.laned;
  record.info = outcome.info;
  if (run.hook_underflows != 0) {
    record.failure = "hook_underflows = " + std::to_string(run.hook_underflows);
  } else if (run.requests_completed > run.requests_issued) {
    record.failure = "completed " + std::to_string(run.requests_completed) +
                     " > issued " + std::to_string(run.requests_issued);
  } else if (outcome.laned && outcome.info.active_sessions != workload.sessions) {
    record.failure = "active sessions " +
                     std::to_string(outcome.info.active_sessions) +
                     " != configured " + std::to_string(workload.sessions);
  }
  return record;
}

/// Runs one cell, timing it and applying the per-run checks; the outcome
/// is moved to `keep` when given. Exceptions become a failed record so one
/// bad run cannot hide the others. CPU time is the calling thread's when
/// several runs share the process (a serial run never leaves its thread),
/// the whole process's otherwise (a laned run spreads over its lane
/// threads).
RunRecord execute(const Cell& cell, const Workload& workload,
                  SimDuration duration, std::size_t threads,
                  Outcome* keep = nullptr) {
  RunRecord record;
  record.cell = cell.name;
  const int cpu_scope = workload.jobs > 1 ? RUSAGE_THREAD : RUSAGE_SELF;
  try {
    const double cpu_start = cpu_seconds(cpu_scope);
    const Clock::time_point start = Clock::now();
    Outcome outcome = cell.run(duration, threads);
    const double wall = seconds_since(start);
    const double cpu = cpu_seconds(cpu_scope) - cpu_start;
    record = summarize(cell.name, outcome, workload);
    record.wall_s = wall;
    record.cpu_s = cpu;
    if (keep != nullptr) *keep = std::move(outcome);
  } catch (const std::exception& error) {
    record.failure = std::string("threw: ") + error.what();
  }
  return record;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The six Fig 9 traces, longest run first (measured serially at the
/// workloads' scale; a trace's cost follows the requests it issues).
const std::vector<TraceKind>& traces_longest_first() {
  static const std::vector<TraceKind> order = {
      TraceKind::kDualPhase,     TraceKind::kQuicklyVarying,
      TraceKind::kSlowlyVarying, TraceKind::kSteepTriPhase,
      TraceKind::kBigSpike,      TraceKind::kLargeVariations};
  return order;
}

/// Reduced scale of the grid workloads: the paper's six traces and 720 s
/// runs with demands ×16 and users ÷16 (ScenarioParams::work_scale), so one
/// grid pass fits several times into a measured run.
constexpr double kGridWorkScale = 16.0;
constexpr SimDuration kGridDuration = 720.0;

Workload table1(std::uint64_t seed, std::size_t threads) {
  ScenarioParams params = ScenarioParams::paper_default();
  params.seed = seed;
  params.work_scale = kGridWorkScale;
  Workload workload;
  workload.duration = kGridDuration;
  workload.jobs = threads;
  for (const TraceKind kind : traces_longest_first()) {
    for (const char* framework : {"conscale", "ec2"}) {
      workload.cells.push_back(
          {std::string(framework) + "/" + to_string(kind),
           [params, kind, framework](SimDuration duration, std::size_t) {
             ScalingRunOptions options;
             options.duration = duration;
             Outcome outcome;
             outcome.graph.run = run_scaling(params, kind, framework, options);
             return outcome;
           }});
    }
  }
  return workload;
}

Workload dag_grid(std::uint64_t seed, std::size_t threads) {
  ScenarioParams params = ScenarioParams::paper_default();
  params.seed = seed;
  params.work_scale = kGridWorkScale;
  const GraphScenario scenario = make_fanout_scenario(params);
  Workload workload;
  workload.duration = kGridDuration;
  workload.jobs = threads;
  for (const TraceKind kind : traces_longest_first()) {
    workload.cells.push_back(
        {"conscale/" + to_string(kind),
         [scenario, kind](SimDuration duration, std::size_t) {
           ScalingRunOptions options;
           options.duration = duration;
           Outcome outcome;
           outcome.graph = run_graph_scaling(scenario, kind, "conscale", options);
           outcome.is_graph = true;
           return outcome;
         }});
  }
  return workload;
}

/// Serving side of the session workloads: wide enough for the offered load
/// from the first second, as in bench_scale.
ScenarioParams session_params(std::uint64_t seed, double sessions) {
  ScenarioParams params = ScenarioParams::paper_default();
  params.seed = seed;
  params.max_users = sessions;
  params.think_time = 300.0;
  params.web_init = params.web_max = 4;
  params.app_init = 16;
  params.app_max = 48;
  params.db_init = 16;
  params.db_max = 48;
  return params;
}

Workload million_sessions(std::uint64_t seed, std::size_t threads) {
  constexpr double kSessions = 1.2e6;
  const ScenarioParams params = session_params(seed, kSessions);
  Workload workload;
  workload.duration = 60.0;
  workload.lane_threads = threads;
  workload.sessions = static_cast<std::uint64_t>(kSessions);
  workload.cells.push_back(
      {"conscale/constant", [params](SimDuration duration, std::size_t lanes) {
         LanedRunOptions options;
         options.base.duration = duration;
         options.shards = 12;
         options.lanes = lanes;
         Outcome outcome;
         outcome.laned = true;
         outcome.graph.run = run_scaling_laned(
             params, make_constant_trace(kSessions, duration), "conscale",
             options, &outcome.info);
         return outcome;
       }});
  return workload;
}

Workload dag_tier_cut(std::uint64_t seed, std::size_t threads) {
  constexpr double kSessions = 2e5;
  const GraphScenario scenario =
      make_fanout_scenario(session_params(seed, kSessions));
  Workload workload;
  workload.duration = 120.0;
  workload.lane_threads = threads;
  workload.sessions = static_cast<std::uint64_t>(kSessions);
  workload.cells.push_back(
      {"conscale/constant",
       [scenario](SimDuration duration, std::size_t lanes) {
         LanedRunOptions options;
         options.base.duration = duration;
         options.shards = 12;
         options.tier_lanes = lanes;
         options.lan_delay = 0.010;
         Outcome outcome;
         outcome.laned = true;
         outcome.is_graph = true;
         outcome.graph = run_graph_scaling_laned(
             scenario, make_constant_trace(kSessions, duration), "conscale",
             options, &outcome.info);
         return outcome;
       }});
  return workload;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t threads) {
  if (name == "table1") return table1(seed, threads);
  if (name == "dag_grid") return dag_grid(seed, threads);
  if (name == "million_sessions") return million_sessions(seed, threads);
  if (name == "dag_tier_cut") return dag_tier_cut(seed, threads);
  throw std::invalid_argument(
      "workload= must be table1, dag_grid, million_sessions or dag_tier_cut");
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void write_lane_info(JsonWriter& json, const LaneRunInfo& info) {
  const lanes::LaneEngineStats& stats = info.stats;
  json.begin_object();
  json.key("rounds").value(stats.windows);
  json.key("messages").value(stats.messages);
  json.key("events").value(stats.events);
  json.key("serial_rounds").value(stats.serial_rounds);
  json.key("solo_rounds").value(stats.solo_rounds);
  json.key("nulls_announced").value(stats.nulls_announced);
  json.key("nulls_suppressed").value(stats.nulls_suppressed);
  json.key("protocol").value(lanes::to_string(info.protocol));
  json.key("active_sessions").value(info.active_sessions);
  json.end_object();
}

void write_cell(JsonWriter& json, const RunRecord& record) {
  json.begin_object();
  json.key("cell").value(record.cell);
  json.key("digest").value(record.digest);
  json.key("p99_ms").value(record.p99_ms);
  json.key("issued").value(record.issued);
  json.key("completed").value(record.completed);
  json.key("sct_estimates").value(record.sct_estimates);
  json.key("samples").value(record.samples);
  json.key("actions").value(record.actions);
  if (record.laned) {
    json.key("lane");
    write_lane_info(json, record.info);
  }
  json.end_object();
}

struct Pass {
  double wall_s = 0.0;
  std::vector<RunRecord> runs;
};

}  // namespace
}  // namespace conscale

int main(int argc, char** argv) {
  using namespace conscale;
  try {
    const Config config = Config::from_args(argc, argv);
    config.require_known_keys({"reference", "seconds", "seed",
                               "setup_batches", "threads", "workload"});
    const std::string name = config.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(config.get_int("seed", 12345));
    const double seconds = config.get_double("seconds", 10.0);
    const auto threads =
        static_cast<std::size_t>(std::max(1L, config.get_int("threads", 1)));
    const long setup_batches = config.get_int("setup_batches", 5);
    const bool want_reference = config.get_bool("reference", true);
    const Workload workload = make_workload(name, seed, threads);
    const std::size_t lane_threads = workload.lane_threads;

    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    const auto note = [&](const RunRecord& record) {
      ++attempted;
      if (!record.failure.empty()) {
        failures.push_back(record.cell + ": " + record.failure);
      }
    };

    // The measured window comes first, so the peak memory is the
    // workload's own and not what the set-up and reference phases leave
    // behind in the allocator.
    std::vector<Pass> passes;
    std::vector<Outcome> first_pass(workload.cells.size());
    const bool check_reference = want_reference && lane_threads > 0;
    const Clock::time_point window = Clock::now();
    do {
      Pass pass;
      const bool keep = check_reference && passes.empty();
      const Clock::time_point start = Clock::now();
      pass.runs = parallel_map<RunRecord>(
          workload.cells.size(), workload.jobs, [&](std::size_t i) {
            return execute(workload.cells[i], workload, workload.duration,
                           lane_threads, keep ? &first_pass[i] : nullptr);
          });
      pass.wall_s = seconds_since(start);
      for (std::size_t i = 0; i < pass.runs.size(); ++i) {
        RunRecord& run = pass.runs[i];
        if (run.failure.empty() && !passes.empty() &&
            run.digest != passes.front().runs[i].digest) {
          run.failure = "differs from its first run in this process";
        }
        note(run);
      }
      passes.push_back(std::move(pass));
    } while (seconds_since(window) < seconds);
    const double peak_rss = peak_rss_mb();

    // The 1-thread reference every laned run must reproduce; later passes
    // already matched the first one.
    double reference_wall_s = 0.0;
    if (check_reference) {
      for (std::size_t i = 0; i < workload.cells.size(); ++i) {
        Outcome reference;
        const Clock::time_point start = Clock::now();
        RunRecord record = execute(workload.cells[i], workload,
                                   workload.duration, 1, &reference);
        reference_wall_s += seconds_since(start);
        std::string diff;
        if (record.failure.empty() && !passes.front().runs[i].failure.empty()) {
          record.failure = "no K-thread run to compare with";
        } else if (record.failure.empty() &&
                   !equivalent(first_pass[i], reference, &diff)) {
          record.failure =
              "K-thread run differs from its 1-thread reference: " + diff;
        }
        note(record);
      }
    }

    // Set-up cost: the same runs at 1 s simulated, fanned out like the
    // measured passes. Each batch repeats them for 0.4 s and sums each
    // run's fastest time: on a shared host a thread runs at one of two
    // speeds for seconds at a time, depending on its core's neighbour, and
    // the fastest time is the set-up cost without that neighbour.
    std::vector<double> setup_s;
    for (long batch = 0; batch < setup_batches; ++batch) {
      const Clock::time_point batch_start = Clock::now();
      std::vector<double> fastest(workload.cells.size(), 0.0);
      do {
        const std::vector<RunRecord> runs = parallel_map<RunRecord>(
            workload.cells.size(), workload.jobs, [&](std::size_t i) {
              return execute(workload.cells[i], workload, 1.0, lane_threads);
            });
        for (std::size_t i = 0; i < runs.size(); ++i) {
          note(runs[i]);
          if (fastest[i] == 0.0 || runs[i].wall_s < fastest[i]) {
            fastest[i] = runs[i].wall_s;
          }
        }
      } while (seconds_since(batch_start) < 0.4);
      double total = 0.0;
      for (const double s : fastest) total += s;
      setup_s.push_back(total);
    }

    JsonWriter json(std::cout);
    json.begin_object();
    json.key("workload").value(name);
    json.key("seed").value(seed);
    json.key("jobs").value(static_cast<std::uint64_t>(workload.jobs));
    json.key("lane_threads").value(static_cast<std::uint64_t>(lane_threads));
    json.key("duration_s").value(workload.duration);
    json.key("attempted").value(attempted);
    json.key("failures").begin_array();
    for (const std::string& failure : failures) json.value(failure);
    json.end_array();
    json.key("setup_s").begin_array();
    for (const double s : setup_s) json.value(s);
    json.end_array();
    json.key("reference_wall_s").value(reference_wall_s);
    json.key("peak_rss_mb").value(peak_rss);
    json.key("cells").begin_array();
    for (const RunRecord& run : passes.front().runs) write_cell(json, run);
    json.end_array();
    json.key("passes").begin_array();
    for (const Pass& pass : passes) {
      json.begin_object();
      json.key("wall_s").value(pass.wall_s);
      json.key("run_wall_s").begin_array();
      for (const RunRecord& run : pass.runs) json.value(run.wall_s);
      json.end_array();
      json.key("run_cpu_s").begin_array();
      for (const RunRecord& run : pass.runs) json.value(run.cpu_s);
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::cout << "\n";
    return failures.empty() ? 0 : 3;
  } catch (const std::exception& error) {
    std::cerr << "cs_bench: " << error.what() << "\n";
    return 2;
  }
}
