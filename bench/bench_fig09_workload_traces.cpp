// Figure 9: "Realistic workload traces used in our experiments" — the six
// bursty user-count shapes (after Gandhi et al.'s categorization).
#include <sstream>

#include "bench_common.h"

using namespace conscale;
using namespace conscale::bench;

int main(int argc, char** argv) try {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  banner("Figure 9 — the six bursty workload traces",
         "Paper: large variations / quickly varying / slowly varying / big "
         "spike / dual phase / steep tri phase; <= 7500 users over 12 min.");

  TraceParams tp;
  tp.duration = env.duration;
  tp.max_users = env.params.scaled_users(env.params.max_users);
  tp.seed = env.params.seed;
  // Generate + render each trace concurrently; print in trace order so the
  // output is byte-identical to the serial loop.
  const auto kinds = all_trace_kinds();
  const auto panels = env.map<std::string>(kinds.size(), [&](std::size_t i) {
    const WorkloadTrace trace = make_trace(kinds[i], tp);
    Series s;
    s.name = trace.name();
    for (std::size_t j = 0; j < trace.samples().size(); j += 2) {
      s.x.push_back(static_cast<double>(j) * trace.sample_period());
      s.y.push_back(trace.samples()[j]);
    }
    ChartOptions co;
    co.x_label = "Timeline [s]";
    co.y_label = "Users [#] — " + trace.name();
    co.height = 10;
    std::ostringstream panel;
    panel << render_lines({s}, co);
    panel << "  peak=" << static_cast<int>(trace.peak_users())
          << " users, start="
          << static_cast<int>(trace.samples().front()) << " users\n\n";
    return panel.str();
  });
  for (const std::string& panel : panels) std::cout << panel;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
