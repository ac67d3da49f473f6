// Golden digests: every experiment entry point, at reduced scale, pinned to a
// hard-coded FNV-1a digest of its rendered output. The benchmark's golden
// file (benchmark/golden.json) covers the four benchmark workloads; this
// table covers everything else the runners serve — all registry
// controllers on the chain, session workloads, fault plans, dataset shift,
// the graph scenarios (fan-out, cache, shedding), client-edge and
// tier-laned engine runs, and the profiling experiments.
//
// A refactor that keeps every digest keeps every result byte for byte. The
// table is data, not tuning: a change that alters a digest changed the
// model, and the table must not be edited to follow it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/analytic.h"
#include "experiments/graph_runner.h"
#include "experiments/json_export.h"
#include "experiments/laned_runner.h"
#include "experiments/parallel.h"
#include "experiments/runner.h"

namespace conscale {
namespace {

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string render(const ScalingRunResult& result) {
  std::ostringstream out;
  JsonExportOptions options;
  options.include_counters = true;
  export_run_json(out, result, options);
  return out.str();
}

std::string render(const GraphRunResult& result) {
  std::ostringstream out;
  out << render(result.run) << '\n';
  for (const auto& row : result.node_latency) {
    out << row.tier << ' ' << row.completions << ' ' << exact(row.mean_ms)
        << ' ' << exact(row.p50_ms) << ' ' << exact(row.p95_ms) << ' '
        << exact(row.p99_ms) << ' ' << exact(row.max_ms) << '\n';
  }
  out << "admission " << result.admission.admitted << ' '
      << result.admission.rejected_occupancy << ' '
      << result.admission.rejected_age << '\n';
  for (const auto& [node, stats] : result.caches) {
    out << "cache " << node << ' ' << stats.hits << ' ' << stats.misses
        << '\n';
  }
  return out.str();
}

std::string render(const std::vector<SweepPoint>& points) {
  std::ostringstream out;
  for (const SweepPoint& p : points) {
    out << p.concurrency << ' ' << exact(p.throughput) << ' '
        << exact(p.mean_rt_ms) << '\n';
  }
  return out.str();
}

std::string render(const ScatterRunResult& result) {
  std::ostringstream out;
  export_scatter_json(out, result);
  return out.str();
}

std::string render(const DcmProfile& profile) {
  std::ostringstream out;
  for (const auto& [tier, optimum] : profile.tier_optimal_concurrency) {
    out << tier << ' ' << optimum << '\n';
  }
  return out.str();
}

ScenarioParams quick_params() {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 16.0;
  p.seed = 4242;
  return p;
}

/// Chain options with the analytic DCM profile, so "dcm" assembles.
ScalingRunOptions chain_options(const ScenarioParams& params) {
  ScalingRunOptions options;
  options.duration = 60.0;
  FrameworkConfig config = make_framework_config();
  config.dcm_profile = train_dcm_profile_analytical(params);
  options.framework_config = config;
  return options;
}

const char* kFaultPlan =
    "crash t=20 tier=app vm=0 restart=10; "
    "cpu t=15 dur=20 tier=db vm=all factor=0.5; "
    "boot t=0 dur=60 tier=app factor=3; "
    "drop t=30 dur=5";

struct Case {
  std::string name;
  std::function<std::string()> render;
};

std::vector<Case> golden_cases() {
  const ScenarioParams params = quick_params();
  std::vector<Case> cases;

  // Every registry controller on the paper's chain.
  for (const char* framework : {"ec2", "dcm", "conscale", "pi", "fuzzy",
                                "vertical", "holt-winters", "hybrid"}) {
    cases.push_back({std::string("chain/") + framework, [params, framework] {
                       return render(run_scaling(params, TraceKind::kBigSpike,
                                                 framework,
                                                 chain_options(params)));
                     }});
  }
  cases.push_back({"chain/session_workload", [params] {
                     ScalingRunOptions options = chain_options(params);
                     options.session_workload = true;
                     return render(run_scaling(params, TraceKind::kBigSpike,
                                               "conscale", options));
                   }});
  for (const char* framework : {"conscale", "ec2", "dcm"}) {
    cases.push_back({std::string("chain/faults/") + framework,
                     [params, framework] {
                       ScalingRunOptions options = chain_options(params);
                       options.faults = FaultPlan::parse(kFaultPlan);
                       return render(run_scaling(params, TraceKind::kBigSpike,
                                                 framework, options));
                     }});
  }
  cases.push_back({"chain/dataset_scale2/dcm", [params] {
                     ScalingRunOptions options = chain_options(params);
                     options.runtime_dataset_scale = 2.0;
                     return render(run_scaling(params, TraceKind::kDualPhase,
                                               "dcm", options));
                   }});

  // The graph scenarios.
  cases.push_back({"graph/fanout", [params] {
                     ScalingRunOptions options;
                     options.duration = 60.0;
                     return render(run_graph_scaling(
                         make_fanout_scenario(params), TraceKind::kBigSpike,
                         "conscale", options));
                   }});
  cases.push_back({"graph/cache", [params] {
                     ScalingRunOptions options;
                     options.duration = 60.0;
                     return render(run_graph_scaling(
                         make_cache_scenario(params), TraceKind::kDualPhase,
                         "conscale", options));
                   }});
  cases.push_back({"graph/shedding", [params] {
                     ScenarioParams overload = params;
                     overload.max_users *= 2.0;
                     GraphScenario scenario = make_fanout_scenario(overload);
                     scenario.graph.admission.enabled = true;
                     scenario.graph.admission.queue_limit = 40;
                     scenario.graph.admission.max_queue_age = 2.0;
                     ScalingRunOptions options;
                     options.duration = 60.0;
                     return render(run_graph_scaling(
                         scenario, TraceKind::kBigSpike, "ec2", options));
                   }});

  // The lane engine: client-edge and tier-laned layouts.
  cases.push_back({"laned/chain/lanes2", [params] {
                     LanedRunOptions options;
                     options.base = chain_options(params);
                     options.lanes = 2;
                     return render(run_scaling_laned(
                         params, TraceKind::kBigSpike, "conscale", options));
                   }});
  cases.push_back({"laned/fanout/lanes2", [params] {
                     LanedRunOptions options;
                     options.base.duration = 60.0;
                     options.lanes = 2;
                     return render(run_graph_scaling_laned(
                         make_fanout_scenario(params), TraceKind::kBigSpike,
                         "conscale", options));
                   }});
  // The default 10 ms LAN hop against the 50 ms client network.
  cases.push_back({"tier_laned/chain/lan10ms", [params] {
                     LanedRunOptions options;
                     options.base = chain_options(params);
                     options.tier_lanes = 2;
                     return render(run_scaling_laned(
                         params, TraceKind::kBigSpike, "conscale", options));
                   }});
  cases.push_back({"tier_laned/fanout/lan10ms", [params] {
                     LanedRunOptions options;
                     options.base.duration = 60.0;
                     options.tier_lanes = 2;
                     return render(run_graph_scaling_laned(
                         make_fanout_scenario(params), TraceKind::kBigSpike,
                         "conscale", options));
                   }});
  // Uniform channels (LAN hop = client network).
  cases.push_back({"tier_laned/chain/uniform", [params] {
                     LanedRunOptions options;
                     options.base = chain_options(params);
                     options.tier_lanes = 2;
                     options.lan_delay = 0.05;
                     return render(run_scaling_laned(
                         params, TraceKind::kBigSpike, "conscale", options));
                   }});

  // The profiling experiments.
  cases.push_back({"profile/sweep/app", [params] {
                     SweepOptions options;
                     options.settle = 2.0;
                     options.measure = 8.0;
                     return render(run_concurrency_sweep(
                         params, kAppTier, {1, 4, 16, 64}, options));
                   }});
  cases.push_back({"profile/sweep/db", [params] {
                     SweepOptions options;
                     options.settle = 2.0;
                     options.measure = 8.0;
                     return render(run_concurrency_sweep(params, kDbTier,
                                                         {2, 8, 32}, options));
                   }});
  cases.push_back({"profile/scatter/app", [params] {
                     ScatterRunOptions options;
                     options.duration = 60.0;
                     return render(collect_scatter(params, kAppTier, options));
                   }});
  cases.push_back({"profile/scatter/db", [params] {
                     ScatterRunOptions options;
                     options.duration = 60.0;
                     options.fixed_app_vms = 4;
                     return render(collect_scatter(params, kDbTier, options));
                   }});
  cases.push_back({"profile/train_dcm",
                   [params] { return render(train_dcm_profile(params)); }});
  return cases;
}

const std::map<std::string, std::string>& golden_table() {
  static const std::map<std::string, std::string> table = {
      {"chain/conscale", "5067427c1a8c58bb"},
      {"chain/dataset_scale2/dcm", "a11b2f208ba3843b"},
      {"chain/dcm", "151cf6e6856d0280"},
      {"chain/ec2", "17b50e464c4797cc"},
      {"chain/faults/conscale", "222308691e493db3"},
      {"chain/faults/dcm", "032d7009bb7b2ba6"},
      {"chain/faults/ec2", "ff780f60fc2d3288"},
      {"chain/fuzzy", "86b4a9835613b9d0"},
      {"chain/holt-winters", "007899d0bf25dbdf"},
      {"chain/hybrid", "7c45d582456774c4"},
      {"chain/pi", "7b22153d5138447b"},
      {"chain/session_workload", "217e7abfbb2e821a"},
      {"chain/vertical", "36905a4eeec5927a"},
      {"graph/cache", "63a421f92ea10e7c"},
      {"graph/fanout", "cd4c432ae5f5346c"},
      {"graph/shedding", "04051529df9c5ba8"},
      {"laned/chain/lanes2", "b8db828ad9932549"},
      {"laned/fanout/lanes2", "96255b600c69e07d"},
      {"profile/scatter/app", "7e3926dc9cbc8010"},
      {"profile/scatter/db", "440ff3b0cf7b46a3"},
      {"profile/sweep/app", "bd6355c30fc51a85"},
      {"profile/sweep/db", "5f299af41c981446"},
      {"profile/train_dcm", "9d28ad2a3325dd30"},
      {"tier_laned/chain/lan10ms", "ce0913f64baf6091"},
      {"tier_laned/chain/uniform", "19506210444aa275"},
      {"tier_laned/fanout/lan10ms", "6d9b35fcbcf1d9ac"},
  };
  return table;
}

TEST(GoldenDigest, EveryEntryPointReproducesItsDigest) {
  const std::vector<Case> cases = golden_cases();
  const std::vector<std::string> digests = parallel_map<std::string>(
      cases.size(), 4,
      [&cases](std::size_t i) { return fnv1a_hex(cases[i].render()); });
  const auto& table = golden_table();
  EXPECT_EQ(table.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto it = table.find(cases[i].name);
    const std::string expected = it == table.end() ? "<missing>" : it->second;
    EXPECT_EQ(digests[i], expected)
        << "{\"" << cases[i].name << "\", \"" << digests[i] << "\"},";
  }
}

}  // namespace
}  // namespace conscale
