// bench_scale: the million-session scale bench of the lane-partitioned PDES
// engine (src/simcore/lanes/, DESIGN.md §6.6).
//
// A constant trace holds `sessions` (default 1.2 million) concurrent
// closed-loop sessions with a long think time against the paper's 3-tier
// chain (or the fan-out DAG with topology=dag), partitioned into `shards`
// SessionShards. Two placements:
//
//   * client-edge (default): the system on cell 0, one cell per shard
//     behind the client<->frontend channel, run by `lanes` worker threads;
//   * tier-laned (tier_lanes=K): the system itself is cut — control cell,
//     tier cells joined by `lan_delay` LAN hops, one cell per shard — and K
//     worker threads execute the cells.
//
// With compare=1 (default) every cell also runs single-threaded — the
// serial reference — and the bench checks the results are bit-identical
// before reporting the wall-clock ratio: parallelism that changes a single
// byte of output is a bug, not a speedup. Per-cell rows land in
// csv_dir/scale_summary.csv for tools/plot_results.py --lanes.
//
// Keys: sessions= think= net_delay= shards= topology=chain|dag compare=
// frameworks= lanes= tier_lanes= lan_delay= plus the standard
// work_scale/seed/duration/csv_dir/jobs (duration defaults to 120 s here —
// the bench measures engine throughput, not a 12-minute control
// trajectory). shards, lanes and tier_lanes are whole numbers: shards and
// lanes at least 1, tier_lanes at least 0 (0 keeps the client-edge layout).
#include <chrono>  // detlint: allow(banned-api) wall-clock cost of the engine itself; never feeds model time
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "experiments/graph_scenario.h"
#include "experiments/laned_runner.h"

namespace conscale {
namespace {

using bench::BenchEnv;

struct CellReport {
  double wall_seconds = 0.0;
  LaneRunInfo info;
  std::uint64_t completed = 0;
  std::uint64_t issued = 0;
  double p95_ms = 0.0;
};

double seconds_since(
    const std::chrono::steady_clock::time_point start) {  // detlint: allow(banned-api) real-time measurement only
  const auto elapsed =
      std::chrono::steady_clock::now() - start;  // detlint: allow(banned-api) real-time measurement only
  return std::chrono::duration<double>(elapsed).count();
}

void print_cell(const std::string& label, const CellReport& cell) {
  const LaneRunInfo& info = cell.info;
  const double per_event_ns =
      info.stats.events > 0
          ? cell.wall_seconds * 1e9 / static_cast<double>(info.stats.events)
          : 0.0;
  std::cout << "  " << label << ": wall " << std::fixed
            << std::setprecision(2) << cell.wall_seconds << " s, "
            << info.stats.events << " events ("
            << std::setprecision(0)
            << (cell.wall_seconds > 0.0
                    ? static_cast<double>(info.stats.events) /
                          cell.wall_seconds
                    : 0.0)
            << " ev/s, " << std::setprecision(1) << per_event_ns
            << " ns/event), " << info.stats.windows << " windows, "
            << info.stats.messages << " messages\n"
            << "      rounds: serial " << info.stats.serial_rounds
            << ", solo " << info.stats.solo_rounds << "\n"
            << "      sessions active " << info.active_sessions
            << ", issued " << cell.issued << ", completed " << cell.completed
            << ", p95 " << std::setprecision(1) << cell.p95_ms << " ms\n";
}

/// One row per executed cell; tools/plot_results.py --lanes reads this.
void append_summary(const std::string& csv_dir, const std::string& topology,
                    const std::string& framework, const std::string& mode,
                    std::size_t threads, const CellReport& cell) {
  if (csv_dir.empty()) return;
  const std::string path = csv_dir + "/scale_summary.csv";
  bool exists = false;
  {
    std::ifstream probe(path);
    exists = probe.good();
  }
  std::ofstream out(path, std::ios::app);
  if (!exists) {
    out << "topology,framework,mode,threads,wall_s,events,events_per_sec\n";
  }
  const double rate =
      cell.wall_seconds > 0.0
          ? static_cast<double>(cell.info.stats.events) / cell.wall_seconds
          : 0.0;
  out << topology << ',' << framework << ',' << mode << ',' << threads << ','
      << std::fixed << std::setprecision(3) << cell.wall_seconds << ','
      << cell.info.stats.events << ',' << std::setprecision(0) << rate
      << "\n";
}

}  // namespace
}  // namespace conscale

int main(int argc, char** argv) try {
  using namespace conscale;
  using bench::frameworks_from;
  if (bench::list_controllers_requested(argc, argv)) {
    bench::print_controller_list(std::cout);
    return 0;
  }
  BenchEnv env = BenchEnv::from_args(
      argc, argv,
      {"sessions", "think", "net_delay", "shards", "topology", "compare",
       "frameworks", "lanes", "tier_lanes", "lan_delay"});
  const Config config = Config::from_args(argc, argv);
  const double sessions = config.get_double("sessions", 1.2e6);
  const double think = config.get_double("think", 300.0);
  const double net_delay = config.get_double("net_delay", 0.05);
  const long long shards = config.get_int("shards", 12);
  const std::string topology = config.get_string("topology", "chain");
  const bool compare = config.get_int("compare", 1) != 0;
  const double duration = config.get_double("duration", 120.0);
  // `lanes` is the client-edge worker-thread count. It defaults to 4: this
  // bench exists to measure the parallel engine, so `lanes=` absent must
  // not mean serial.
  const long long lanes = config.get_int("lanes", 4);
  const long long tier_lanes = config.get_int("tier_lanes", 0);
  const double lan_delay = config.get_double("lan_delay", 0.010);
  const std::vector<ControllerRef> frameworks =
      frameworks_from(config, "conscale");
  if (topology != "chain" && topology != "dag") {
    throw std::invalid_argument("topology= must be chain or dag, got '" +
                                topology + "'");
  }
  if (shards < 1) {
    throw std::invalid_argument("shards= must be at least 1, got " +
                                std::to_string(shards));
  }
  if (lanes < 1) {
    throw std::invalid_argument("lanes= must be at least 1, got " +
                                std::to_string(lanes));
  }
  if (tier_lanes < 0) {
    throw std::invalid_argument("tier_lanes= must be at least 0, got " +
                                std::to_string(tier_lanes));
  }
  const bool tiered = tier_lanes > 0;

  bench::banner(
      "Lane-partitioned PDES — million-session scale bench",
      "Beyond-paper systems work: conservative synchronization over the "
      "model's network delays (DESIGN.md §6.6). Any thread count must "
      "reproduce the single-threaded run bit-for-bit; only the wall clock "
      "may move.");

  // The serving side needs headroom for the offered load; the bench
  // measures engine throughput, so the tiers start wide instead of making
  // the controllers climb from 1/1/1 for half the run.
  ScenarioParams params = env.params;
  params.max_users = sessions;
  params.think_time = think;
  params.web_init = params.web_max = 4;
  params.app_init = 16;
  params.app_max = 48;
  params.db_init = 16;
  params.db_max = 48;

  const WorkloadTrace trace = make_constant_trace(sessions, duration);
  // The chain runs as its linear graph, so both topologies share one
  // result type and one equivalence check.
  const GraphScenario scenario = topology == "chain"
                                     ? make_linear_scenario(params)
                                     : make_fanout_scenario(params);

  LanedRunOptions options;
  options.base.duration = duration;
  options.base.faults = env.faults;
  options.shards = static_cast<std::size_t>(shards);
  options.net_delay = net_delay;
  options.lan_delay = lan_delay;
  if (tiered) options.tier_lanes = static_cast<std::size_t>(tier_lanes);

  // Thread count of the measured cell: tier_lanes in tier-laned mode, lanes
  // otherwise.
  const std::size_t measured_threads =
      static_cast<std::size_t>(tiered ? tier_lanes : lanes);
  const std::string mode = tiered ? "tier-laned" : "client-edge";
  const std::string knob = tiered ? "tier_lanes" : "lanes";

  std::cout << "  grid: " << frameworks.size() << " frameworks x "
            << topology << " (" << mode << "), " << std::fixed
            << std::setprecision(0) << sessions << " sessions, "
            << options.shards << " shards, " << knob << "="
            << measured_threads << ", " << duration << " s simulated\n";

  bool all_identical = true;
  for (const ControllerRef& framework : frameworks) {
    const std::string name = to_string(framework);
    std::cout << "\n  == " << name << " / " << topology << " ==\n";

    const auto run_cell = [&](std::size_t threads, CellReport& cell) {
      LanedRunOptions cell_options = options;
      if (tiered) {
        cell_options.tier_lanes = threads;
      } else {
        cell_options.lanes = threads;
      }
      const auto start =
          std::chrono::steady_clock::now();  // detlint: allow(banned-api) real-time measurement only
      GraphRunResult result = run_graph_scaling_laned(
          scenario, trace, name, cell_options, &cell.info);
      cell.wall_seconds = seconds_since(start);
      cell.completed = result.run.requests_completed;
      cell.issued = result.run.requests_issued;
      cell.p95_ms = result.run.p95_ms;
      return result;
    };

    const auto dump_cell = [&](std::size_t threads,
                               const GraphRunResult& result) {
      if (env.csv_dir.empty()) return;
      const std::string stem = "scale_" + topology + "_" + framework.name +
                               "_" + (tiered ? "tlanes" : "lanes") +
                               std::to_string(threads);
      if (topology == "chain") {
        env.maybe_dump(stem, result.run);
      } else {
        dump_graph_system_csv(env.csv_dir + "/" + stem + ".csv", result);
        dump_node_latency_csv(env.csv_dir + "/" + stem + "_nodes.csv",
                              result);
      }
    };

    CellReport laned_cell, serial_cell;
    const GraphRunResult laned = run_cell(measured_threads, laned_cell);
    std::ostringstream laned_label;
    laned_label << knob << "=" << measured_threads << " [window "
                << laned_cell.info.lookahead << " s, "
                << laned_cell.info.placement << "]";
    print_cell(laned_label.str(), laned_cell);
    dump_cell(measured_threads, laned);
    append_summary(env.csv_dir, topology, framework.name, mode,
                   measured_threads, laned_cell);

    if (!compare) continue;
    const GraphRunResult serial = run_cell(1, serial_cell);
    print_cell(knob + "=1", serial_cell);
    dump_cell(1, serial);
    append_summary(env.csv_dir, topology, framework.name, mode, 1,
                   serial_cell);

    std::string diff;
    if (!graph_results_equivalent(laned, serial, &diff)) {
      all_identical = false;
      std::cout << "  DETERMINISM VIOLATION (" << knob << "="
                << measured_threads << " vs " << knob << "=1): " << diff
                << "\n";
    } else {
      std::cout << "  determinism: " << knob << "=" << measured_threads
                << " == " << knob << "=1 (bit-identical)\n";
    }
    if (laned_cell.wall_seconds > 0.0) {
      std::cout << "  speedup: " << std::fixed << std::setprecision(2)
                << serial_cell.wall_seconds / laned_cell.wall_seconds
                << "x (serial " << serial_cell.wall_seconds << " s / laned "
                << laned_cell.wall_seconds << " s)\n";
    }
  }

  bench::paper_note(
      "No paper counterpart — scalability infrastructure for the simulator "
      "itself; determinism contract per DESIGN.md §8/§6.6.");
  return all_identical ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
