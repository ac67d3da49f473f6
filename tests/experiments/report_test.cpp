#include "experiments/report.h"
#include "experiments/json_export.h"

#include <algorithm>

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace conscale {
namespace {

ScalingRunResult tiny_result() {
  ScalingRunResult r;
  r.framework_name = "ConScale";
  r.trace_name = "big_spike";
  for (int t = 1; t <= 30; ++t) {
    SystemSample s;
    s.t = t;
    s.throughput = 1000.0 + 20.0 * t;
    s.mean_rt = 0.050 + 0.001 * t;
    s.max_rt = s.mean_rt * 3.0;
    s.total_vms = 3 + t / 10;
    r.system.push_back(s);
    TierSample ts;
    ts.t = t;
    ts.avg_cpu_utilization = 0.5;
    ts.billed_vms = 1;
    ts.running_vms = 1;
    r.tiers["Tomcat"].push_back(ts);
  }
  r.events.push_back({12.0, "Tomcat", "scale-out", 2.0});
  r.events.push_back({13.0, "Tomcat", "threads", 24.0});
  r.mean_rt_ms = 60.0;
  r.p50_ms = 55.0;
  r.p95_ms = 80.0;
  r.p99_ms = 95.0;
  r.max_rt_ms = 200.0;
  r.requests_completed = 12345;
  return r;
}

TEST(Report, PerformanceTimelineMentionsKeyNumbers) {
  std::ostringstream out;
  print_performance_timeline(out, "test panel", tiny_result());
  const std::string s = out.str();
  EXPECT_NE(s.find("test panel"), std::string::npos);
  EXPECT_NE(s.find("ConScale"), std::string::npos);
  EXPECT_NE(s.find("p99=95ms"), std::string::npos);
  EXPECT_NE(s.find("Response Time"), std::string::npos);
  EXPECT_NE(s.find("Throughput"), std::string::npos);
}

TEST(Report, ScalingTimelineShowsTiersAndVms) {
  std::ostringstream out;
  print_scaling_timeline(out, "scaling", tiny_result());
  const std::string s = out.str();
  EXPECT_NE(s.find("Tomcat CPU"), std::string::npos);
  EXPECT_NE(s.find("# of VMs"), std::string::npos);
}

TEST(Report, EventsListEveryAction) {
  std::ostringstream out;
  print_events(out, tiny_result().events);
  const std::string s = out.str();
  EXPECT_NE(s.find("scale-out"), std::string::npos);
  EXPECT_NE(s.find("threads"), std::string::npos);
  EXPECT_NE(s.find("12.0s"), std::string::npos);
}

TEST(Report, NodeLatencyTableIsAligned) {
  std::ostringstream out;
  print_node_latency(out, {{"MySQL", 1234, 5.5, 4.0, 9.5, 12.0, 30.0}});
  EXPECT_EQ(out.str(),
            "  tier       server      completions     mean      p50      p95"
            "      p99      max\n"
            "  MySQL      *                  1234     5.5     4.0     9.5"
            "    12.0    30.0\n");
}

TEST(Report, TailTableFormatsRows) {
  std::ostringstream out;
  print_tail_table(out, "Table I",
                   {{"EC2-AutoScaling", "big_spike", 687.0, 3981.0},
                    {"ConScale", "big_spike", 179.0, 479.0}});
  const std::string s = out.str();
  EXPECT_NE(s.find("Table I"), std::string::npos);
  EXPECT_NE(s.find("3981"), std::string::npos);
  EXPECT_NE(s.find("479"), std::string::npos);
}

TEST(Report, SweepPrintsAllLevels) {
  std::ostringstream out;
  print_sweep(out, "fig3", {{5, 400.0, 8.0}, {10, 900.0, 9.0},
                            {20, 1000.0, 15.0}});
  const std::string s = out.str();
  EXPECT_NE(s.find("fig3"), std::string::npos);
  EXPECT_NE(s.find(" 5 10 20"), std::string::npos);
}

TEST(Report, ScatterAnalysisWithAndWithoutEstimate) {
  ScatterRunResult with;
  IntervalSample sample;
  sample.concurrency = 10.0;
  sample.throughput = 500.0;
  sample.completions = 3;
  sample.mean_rt = 0.02;
  with.raw_samples.assign(50, sample);
  RationalRange range;
  range.q_lower = 8;
  range.q_upper = 20;
  range.tp_max = 520.0;
  range.optimal = 8;
  with.range = range;
  std::ostringstream out;
  print_scatter_analysis(out, "scatter", with);
  EXPECT_NE(out.str().find("Q_lower=8"), std::string::npos);

  ScatterRunResult without;
  without.raw_samples.assign(5, sample);
  std::ostringstream out2;
  print_scatter_analysis(out2, "scatter2", without);
  EXPECT_NE(out2.str().find("not enough dense samples"), std::string::npos);
}

TEST(JsonExport, RunExportContainsAllSections) {
  std::ostringstream out;
  export_run_json(out, tiny_result());
  const std::string doc = out.str();
  for (const char* needle :
       {"\"framework\":\"ConScale\"", "\"summary\"", "\"p99_ms\":95",
        "\"system_series\"", "\"tiers\"", "\"Tomcat\"", "\"events\"",
        "\"action\":\"scale-out\"", "\"sct_history\""}) {
    EXPECT_NE(doc.find(needle), std::string::npos) << needle;
  }
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
}

TEST(JsonExport, FileVariantWritesDocument) {
  const std::string path = ::testing::TempDir() + "/run_export.json";
  export_run_json(path, tiny_result());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"requests_completed\":12345"),
            std::string::npos);
  std::remove(path.c_str());
  EXPECT_THROW(export_run_json("/no/dir/x.json", tiny_result()),
               std::runtime_error);
}

TEST(Report, CsvDumpsRoundTrip) {
  const std::string sys_path = ::testing::TempDir() + "/report_sys.csv";
  dump_system_csv(sys_path, tiny_result());
  std::ifstream in(sys_path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "t,throughput_rps,mean_rt_ms,max_rt_ms,total_vms");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 30);
  std::remove(sys_path.c_str());
}

}  // namespace
}  // namespace conscale
