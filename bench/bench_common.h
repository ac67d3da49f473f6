// Shared helpers for the figure/table regeneration benches.
//
// Every bench binary accepts `key=value` overrides (work_scale=, duration=,
// seed=, csv_dir=, jobs=, faults=) so the full-fidelity runs can be sped up
// when needed. All default to the paper's native scale. Unknown keys abort
// with the list of valid ones — a mistyped knob must not silently run the
// default. Multi-run benches fan their independent runs across `jobs`
// worker threads (default: one per hardware thread) through `map`
// (parallel_map); results and printed output are bit-identical to the
// serial path regardless of `jobs`.
#pragma once

#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ascii_chart.h"
#include "common/config.h"
#include "experiments/json_export.h"
#include "experiments/parallel.h"
#include "experiments/report.h"
#include "experiments/runner.h"

namespace conscale::bench {

struct BenchEnv {
  ScenarioParams params;
  SimDuration duration = 720.0;
  std::string csv_dir;
  /// Worker threads for multi-run fan-out; 0 = one per hardware thread,
  /// 1 = fully serial.
  std::size_t jobs = 0;
  /// Optional fault schedule (faults= inline text, or faults=@file); empty
  /// for the standard fault-free benches. Applied to every scaling run
  /// through scaling_options(); profiling and scatter benches have no
  /// system to perturb and ignore it.
  FaultPlan faults;

  /// Parses and validates the common bench keys. Benches with extra knobs
  /// pass them in `extra_keys`; anything else on the command line aborts
  /// with the list of valid keys.
  static BenchEnv from_args(int argc, char** argv,
                            const std::vector<std::string>& extra_keys = {}) {
    const Config config = Config::from_args(argc, argv);
    std::vector<std::string> known = {"work_scale", "seed", "duration",
                                      "csv_dir",    "jobs", "faults"};
    known.insert(known.end(), extra_keys.begin(), extra_keys.end());
    config.require_known_keys(known);
    BenchEnv env;
    env.params = ScenarioParams::paper_default();
    env.params.work_scale = config.get_double("work_scale", 1.0);
    env.params.seed = static_cast<std::uint64_t>(config.get_int("seed", 12345));
    env.duration = config.get_double("duration", 720.0);
    env.csv_dir = config.get_string("csv_dir", "");
    const long long jobs = config.get_int("jobs", 0);
    env.jobs = jobs > 0 ? static_cast<std::size_t>(jobs) : 0;
    const std::string faults = config.get_string("faults", "");
    if (!faults.empty()) {
      if (faults.front() == '@') {
        std::ifstream in(faults.substr(1));
        if (!in) {
          throw std::runtime_error("faults=: cannot open " +
                                   faults.substr(1));
        }
        std::ostringstream text;
        text << in.rdbuf();
        env.faults = FaultPlan::parse(text.str());
      } else {
        env.faults = FaultPlan::parse(faults);
      }
    }
    return env;
  }

  /// Standard per-run options: the bench duration plus the command-line
  /// fault schedule. Every scaling run starts from this so `faults=` reaches
  /// it; a bench's own plan (bench_resilience's scenarios) replaces it.
  ScalingRunOptions scaling_options() const {
    ScalingRunOptions options;
    options.duration = duration;
    options.faults = faults;
    return options;
  }

  /// The bench's run fan-out, honouring `jobs=`: fn(i) for every i in
  /// [0, n), results in index order.
  template <typename T>
  std::vector<T> map(std::size_t n,
                     const std::function<T(std::size_t)>& fn) const {
    return parallel_map<T>(n, jobs, fn);
  }

  void maybe_dump(const std::string& stem, const ScalingRunResult& r) const {
    if (csv_dir.empty()) return;
    dump_system_csv(csv_dir + "/" + stem + ".csv", r);
    export_run_json(csv_dir + "/" + stem + ".json", r);
    std::cout << "  (csv+json written to " << csv_dir << "/" << stem
              << ".{csv,json})\n";
  }

  void maybe_dump(const std::string& stem, const ScatterRunResult& r) const {
    if (csv_dir.empty()) return;
    dump_scatter_csv(csv_dir + "/" + stem + ".csv", r);
    std::cout << "  (csv written to " << csv_dir << "/" << stem << ".csv)\n";
  }
};

/// Resolves a bench's `frameworks=` list against the controller registry
/// (falling back to `fallback` when the key is absent). Every name is
/// validated before any run starts — an unknown controller aborts with the
/// registered list, never silently runs a default grid.
inline std::vector<ControllerRef> frameworks_from(
    const Config& config, const std::string& fallback) {
  return ControllerRegistry::global().parse_list(
      config.get_string("frameworks", fallback));
}

/// True when `--list-controllers` appears on the command line (checked
/// before key validation so it works standalone).
inline bool list_controllers_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--list-controllers") return true;
  }
  return false;
}

/// Prints the controller registry as a table (key, display name,
/// description, reference), in registry (alphabetical) order.
inline void print_controller_list(std::ostream& out) {
  out << "registered controllers (frameworks= accepts a comma-separated "
         "list; options via name(k=v;k2=v2)):\n";
  for (const ControllerSpec* spec : ControllerRegistry::global().all()) {
    out << "  " << spec->name << " (" << spec->display_name << ")\n"
        << "      " << spec->description << "\n";
    if (!spec->reference.empty()) {
      out << "      ref: " << spec->reference << "\n";
    }
  }
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n================================================================\n"
            << title << "\n" << paper_ref
            << "\n================================================================\n";
}

/// Paper-vs-measured comparison line for EXPERIMENTS.md bookkeeping.
inline void paper_note(const std::string& note) {
  std::cout << "  [paper] " << note << "\n";
}

}  // namespace conscale::bench
