// Regression tests for the self-contained-run guarantee: the same run
// must produce bit-identical results whether executed serially, twice in a
// row, or fanned out across parallel_map worker threads. Any mutable global
// state creeping back onto the run path (a shared RNG, a logger-owned level
// gate, a static cache) shows up here as a timeline mismatch.
#include "experiments/parallel.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "experiments/json_export.h"
#include "experiments/report.h"

namespace conscale {
namespace {

ScenarioParams quick_params() {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 16.0;
  p.seed = 4242;
  return p;
}

ScalingRunOptions quick_options() {
  ScalingRunOptions options;
  options.duration = 60.0;
  return options;
}

ScalingRunResult quick_run() {
  return run_scaling(quick_params(), TraceKind::kBigSpike, "conscale",
                     quick_options());
}

/// `copies` runs of quick_run() fanned over `jobs` threads.
std::vector<ScalingRunResult> fan_out(std::size_t copies, std::size_t jobs) {
  return parallel_map<ScalingRunResult>(
      copies, jobs, [](std::size_t) { return quick_run(); });
}

TEST(Determinism, SerialRepeatIsBitIdentical) {
  const ScalingRunResult first = quick_run();
  const ScalingRunResult second = quick_run();
  std::string diff;
  EXPECT_TRUE(results_equivalent(first, second, &diff)) << diff;
}

TEST(Determinism, ParallelFanOutMatchesSerial) {
  // Four copies of the same run on four threads plus a serial baseline:
  // every copy must reproduce the baseline exactly, even while the other
  // copies run concurrently on other threads.
  const ScalingRunResult baseline = quick_run();
  const std::vector<ScalingRunResult> results = fan_out(4, 4);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string diff;
    EXPECT_TRUE(results_equivalent(results[i], baseline, &diff))
        << "copy " << i << ": " << diff;
  }
}

TEST(Determinism, MixedRunsKeepIndexOrderAndMatchSerialReruns) {
  // Three different runs on three threads land in index order, and each
  // equals its own serial re-run.
  const auto run = [](std::size_t i) {
    return run_scaling(quick_params(),
                       i == 2 ? TraceKind::kDualPhase : TraceKind::kBigSpike,
                       i == 1 ? "ec2" : "conscale", quick_options());
  };
  const std::vector<ScalingRunResult> results =
      parallel_map<ScalingRunResult>(3, 3, run);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].framework_name, "ConScale");
  EXPECT_EQ(results[1].framework_name, "EC2-AutoScaling");
  EXPECT_EQ(results[2].trace_name, "dual_phase");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string diff;
    EXPECT_TRUE(results_equivalent(results[i], run(i), &diff))
        << "run " << i << ": " << diff;
  }
}

TEST(Determinism, RefactoredConScaleArtifactsAreByteIdentical) {
  // The registry refactor must not move a byte of the report artifacts:
  // the flagship "conscale" run is rendered to CSV and JSON once from a
  // serial run and once from a jobs=4 fan-out, and the files must compare
  // equal byte for byte.
  const ScalingRunResult serial = quick_run();
  const std::vector<ScalingRunResult> results = fan_out(4, 4);
  ASSERT_EQ(results.size(), 4u);

  const auto render = [](const std::string& stem, const ScalingRunResult& r) {
    const std::string base = ::testing::TempDir() + "/" + stem;
    dump_system_csv(base + ".csv", r);
    JsonExportOptions json_options;
    json_options.include_counters = true;
    export_run_json(base + ".json", r, json_options);
    std::string bytes;
    for (const char* ext : {".csv", ".json"}) {
      std::ifstream in(base + ext, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      bytes += buffer.str();
      std::remove((base + ext).c_str());
    }
    return bytes;
  };
  const std::string baseline = render("det_serial", serial);
  ASSERT_FALSE(baseline.empty());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(render("det_par_" + std::to_string(i), results[i]), baseline)
        << "jobs=4 copy " << i << " rendered different bytes";
  }
}

TEST(Determinism, ResultsEquivalentFlagsDifferences) {
  ScenarioParams other = quick_params();
  other.seed += 1;
  const ScalingRunResult x = quick_run();
  const ScalingRunResult y =
      run_scaling(other, TraceKind::kBigSpike, "conscale", quick_options());
  std::string diff;
  EXPECT_FALSE(results_equivalent(x, y, &diff));
  EXPECT_FALSE(diff.empty());
}

TEST(ResultsEquivalent, NamesTheFirstDifference) {
  // One faulted run fills every compared family; each case perturbs one
  // field of a copy and expects the diff to name it.
  ScalingRunOptions options = quick_options();
  options.duration = 120.0;  // long enough for SCT estimates
  options.faults = FaultPlan::parse("crash t=20 tier=app vm=0 restart=10");
  const ScalingRunResult base =
      run_scaling(quick_params(), TraceKind::kBigSpike, "conscale", options);
  ASSERT_GT(base.system.size(), 12u);
  ASSERT_FALSE(base.events.empty());
  ASSERT_FALSE(base.sct_history.empty());
  ASSERT_FALSE(base.fault_windows.empty());
  ASSERT_FALSE(base.controller_counters.empty());
  ASSERT_GT(base.tiers.at("Tomcat").size(), 3u);
  ASSERT_TRUE(results_equivalent(base, base));

  const auto expect_diff = [&base](const char* expected, auto&& perturb) {
    ScalingRunResult copy = base;
    perturb(copy);
    std::string diff;
    EXPECT_FALSE(results_equivalent(base, copy, &diff)) << expected;
    EXPECT_EQ(diff, expected);
  };
  expect_diff("p99_ms", [](ScalingRunResult& r) { r.p99_ms += 1.0; });
  expect_diff("system[12]",
              [](ScalingRunResult& r) { r.system[12].max_rt += 1e-9; });
  expect_diff("tier Tomcat[3]", [](ScalingRunResult& r) {
    ++r.tiers.at("Tomcat")[3].running_vms;
  });
  expect_diff("events[0]",
              [](ScalingRunResult& r) { r.events[0].value += 1.0; });
  expect_diff("sct_history[0]", [](ScalingRunResult& r) {
    r.sct_history[0].range.q_upper += 1;
  });
  // Not compared before the sample types compared by value.
  expect_diff("sct_history[0]", [](ScalingRunResult& r) {
    ++r.sct_history[0].range.buckets_used;
  });
  expect_diff("fault_windows[0]",
              [](ScalingRunResult& r) { r.fault_windows[0].end += 1.0; });
  expect_diff("controller_counters", [](ScalingRunResult& r) {
    ++r.controller_counters.begin()->second;
  });
}

TEST(ParallelFor, RethrowsLowestFailingIndex) {
  EXPECT_THROW(
      detail::parallel_for(8, 4,
                           [](std::size_t i) {
                             if (i == 2 || i == 5) {
                               throw std::runtime_error("boom " +
                                                        std::to_string(i));
                             }
                           }),
      std::runtime_error);
  try {
    detail::parallel_for(8, 4, [](std::size_t i) {
      if (i == 2 || i == 5) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");
  }
}

TEST(ParallelMap, OrdersResultsByIndex) {
  const auto values = parallel_map<std::size_t>(
      64, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(values.size(), 64u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], i * i);
  }
}

}  // namespace
}  // namespace conscale
