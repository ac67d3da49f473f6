// sct_explorer: interactive exploration of the Scatter-Concurrency-Throughput
// model on a single target tier — the §III workflow as a standalone tool.
//
// Ramps offered concurrency through the target tier's whole operating range,
// collects 50 ms {Q, TP, RT} samples, prints the scatter graph, the detected
// stages, and the estimated rational concurrency range [Q_lower, Q_upper].
//
// Usage:
//   sct_explorer [tier=db|app|web] [cores=1] [mode=browse|readwrite]
//                [dataset_scale=1.0] [max_users=120] [duration=120]
//                [app_vms=1] [db_vms=1] [work_scale=1] [seed=12345]
//
// Examples (reproducing the paper's factor studies):
//   sct_explorer tier=db cores=1            # Fig 7(a): Q_lower ~ 10
//   sct_explorer tier=db cores=2            # Fig 7(d): Q_lower doubles
//   sct_explorer tier=app db_vms=4          # Fig 7(b): Tomcat bottleneck
//   sct_explorer tier=app db_vms=4 dataset_scale=1.5   # Fig 7(e)
//   sct_explorer tier=db app_vms=4 mode=readwrite      # Fig 7(f)
#include <iostream>
#include <string>

#include "common/config.h"
#include "experiments/report.h"
#include "experiments/runner.h"

using namespace conscale;

int main(int argc, char** argv) try {
  const Config config = Config::from_args(argc, argv);
  config.require_known_keys({"work_scale", "seed", "dataset_scale", "mode",
                             "tier", "cores", "duration", "max_users",
                             "app_vms", "db_vms", "csv"});

  ScenarioParams params = ScenarioParams::paper_default();
  params.work_scale = config.get_double("work_scale", 1.0);
  params.seed = static_cast<std::uint64_t>(config.get_int("seed", 12345));
  params.mix.dataset_scale = config.get_double("dataset_scale", 1.0);
  const std::string mode = config.get_string("mode", "browse");
  params.mode = mode == "readwrite" ? WorkloadMode::kReadWriteMix
                                    : WorkloadMode::kBrowseOnly;

  const std::string tier_name = config.get_string("tier", "db");
  std::size_t tier = kDbTier;
  if (tier_name == "app") tier = kAppTier;
  if (tier_name == "web") tier = kWebTier;

  const int cores = static_cast<int>(config.get_int("cores", 1));
  if (tier == kDbTier) params.db_cores = cores;
  if (tier == kAppTier) params.app_cores = cores;

  ScatterRunOptions options;
  options.duration = config.get_double("duration", 120.0);
  options.max_users = config.get_double("max_users", 120.0);
  options.fixed_app_vms =
      static_cast<std::size_t>(config.get_int("app_vms", 1));
  options.fixed_db_vms = static_cast<std::size_t>(config.get_int("db_vms", 1));

  std::cout << "SCT exploration: tier=" << tier_name << " cores=" << cores
            << " mode=" << mode
            << " dataset_scale=" << params.mix.dataset_scale
            << " topology=1/" << options.fixed_app_vms << "/"
            << options.fixed_db_vms << "\n\n";

  const ScatterRunResult result = collect_scatter(params, tier, options);
  print_scatter_analysis(std::cout, "SCT scatter analysis", result);

  const std::string csv = config.get_string("csv", "");
  if (!csv.empty()) {
    dump_scatter_csv(csv, result);
    std::cout << "  raw samples written to " << csv << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
