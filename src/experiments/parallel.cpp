#include "experiments/parallel.h"

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace conscale {

std::size_t default_parallel_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<std::size_t>(hw) : 1;
}

namespace detail {

void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::size_t workers = jobs == 0 ? default_parallel_jobs() : jobs;
  if (workers > n) workers = n;

  std::vector<std::exception_ptr> errors(n);
  auto run_index = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_index(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
          run_index(i);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  // Failures surface deterministically: the lowest failing index wins, no
  // matter which worker hit it first.
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace detail

ScalingRunResult RunSet::run_one(const RunSpec& spec) {
  return run_scaling(spec.params, spec.trace, spec.framework, spec.options);
}

std::vector<ScalingRunResult> RunSet::run(
    const std::vector<RunSpec>& specs) const {
  std::vector<ScalingRunResult> results =
      parallel_map<ScalingRunResult>(specs.size(), options_.jobs,
                                     [&specs](std::size_t i) {
                                       return run_one(specs[i]);
                                     });
  if (options_.deterministic) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const ScalingRunResult serial = run_one(specs[i]);
      std::string diff;
      if (!results_equivalent(results[i], serial, &diff)) {
        std::ostringstream message;
        message << "RunSet determinism violation in spec " << i << " ("
                << serial.framework_name << "/" << serial.trace_name
                << "): " << diff;
        throw std::logic_error(message.str());
      }
    }
  }
  return results;
}

namespace {

bool fail(std::string* diff, const std::string& message) {
  if (diff) *diff = message;
  return false;
}

std::string at(const char* series, std::size_t i, const char* field) {
  std::ostringstream out;
  out << series << "[" << i << "]." << field;
  return out.str();
}

bool tier_series_equal(const std::vector<TierSample>& a,
                       const std::vector<TierSample>& b, std::string* diff,
                       const std::string& name) {
  if (a.size() != b.size()) return fail(diff, name + " length");
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].t != b[i].t) return fail(diff, at(name.c_str(), i, "t"));
    if (a[i].avg_cpu_utilization != b[i].avg_cpu_utilization)
      return fail(diff, at(name.c_str(), i, "avg_cpu_utilization"));
    if (a[i].billed_vms != b[i].billed_vms)
      return fail(diff, at(name.c_str(), i, "billed_vms"));
    if (a[i].running_vms != b[i].running_vms)
      return fail(diff, at(name.c_str(), i, "running_vms"));
  }
  return true;
}

}  // namespace

bool results_equivalent(const ScalingRunResult& a, const ScalingRunResult& b,
                        std::string* diff) {
  if (a.framework_name != b.framework_name)
    return fail(diff, "framework_name");
  if (a.framework_key != b.framework_key) return fail(diff, "framework_key");
  if (a.trace_name != b.trace_name) return fail(diff, "trace_name");
  if (a.controller_counters != b.controller_counters)
    return fail(diff, "controller_counters");

  if (a.system.size() != b.system.size())
    return fail(diff, "system series length");
  for (std::size_t i = 0; i < a.system.size(); ++i) {
    const SystemSample& x = a.system[i];
    const SystemSample& y = b.system[i];
    if (x.t != y.t) return fail(diff, at("system", i, "t"));
    if (x.throughput != y.throughput)
      return fail(diff, at("system", i, "throughput"));
    if (x.mean_rt != y.mean_rt) return fail(diff, at("system", i, "mean_rt"));
    if (x.max_rt != y.max_rt) return fail(diff, at("system", i, "max_rt"));
    if (x.total_vms != y.total_vms)
      return fail(diff, at("system", i, "total_vms"));
    if (x.rejected != y.rejected)
      return fail(diff, at("system", i, "rejected"));
  }

  if (a.tiers.size() != b.tiers.size()) return fail(diff, "tier count");
  for (const auto& [name, series] : a.tiers) {
    auto it = b.tiers.find(name);
    if (it == b.tiers.end()) return fail(diff, "missing tier " + name);
    if (!tier_series_equal(series, it->second, diff, "tier " + name))
      return false;
  }

  if (a.events.size() != b.events.size()) return fail(diff, "event count");
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const ScalingEvent& x = a.events[i];
    const ScalingEvent& y = b.events[i];
    if (x.t != y.t || x.tier != y.tier || x.action != y.action ||
        x.value != y.value) {
      return fail(diff, at("events", i, "fields"));
    }
  }

  if (a.sct_history.size() != b.sct_history.size())
    return fail(diff, "sct_history length");
  for (std::size_t i = 0; i < a.sct_history.size(); ++i) {
    const auto& x = a.sct_history[i];
    const auto& y = b.sct_history[i];
    if (x.t != y.t || x.tier != y.tier ||
        x.range.q_lower != y.range.q_lower ||
        x.range.q_upper != y.range.q_upper ||
        x.range.optimal != y.range.optimal ||
        x.range.tp_max != y.range.tp_max ||
        x.range.descending_observed != y.range.descending_observed ||
        x.range.q_upper_censored != y.range.q_upper_censored) {
      return fail(diff, at("sct_history", i, "fields"));
    }
  }

  if (a.mean_rt_ms != b.mean_rt_ms) return fail(diff, "mean_rt_ms");
  if (a.p50_ms != b.p50_ms) return fail(diff, "p50_ms");
  if (a.p95_ms != b.p95_ms) return fail(diff, "p95_ms");
  if (a.p99_ms != b.p99_ms) return fail(diff, "p99_ms");
  if (a.max_rt_ms != b.max_rt_ms) return fail(diff, "max_rt_ms");
  if (a.sla_500ms != b.sla_500ms) return fail(diff, "sla_500ms");
  if (a.requests_issued != b.requests_issued)
    return fail(diff, "requests_issued");
  if (a.requests_completed != b.requests_completed)
    return fail(diff, "requests_completed");
  if (a.requests_rejected != b.requests_rejected)
    return fail(diff, "requests_rejected");
  if (a.hook_underflows != b.hook_underflows)
    return fail(diff, "hook_underflows");

  // Fault-injection outcome must replay exactly too (all fields zero/empty
  // for fault-free runs, so this is free there).
  if (a.fault_plan_text != b.fault_plan_text)
    return fail(diff, "fault_plan_text");
  if (a.requests_aborted != b.requests_aborted)
    return fail(diff, "requests_aborted");
  if (a.dropped_samples != b.dropped_samples)
    return fail(diff, "dropped_samples");
  if (a.fault_stats.crashes_injected != b.fault_stats.crashes_injected ||
      a.fault_stats.crashes_missed != b.fault_stats.crashes_missed ||
      a.fault_stats.interference_windows !=
          b.fault_stats.interference_windows ||
      a.fault_stats.boot_jitter_windows != b.fault_stats.boot_jitter_windows ||
      a.fault_stats.dropout_windows != b.fault_stats.dropout_windows) {
    return fail(diff, "fault_stats");
  }
  if (a.fault_windows.size() != b.fault_windows.size())
    return fail(diff, "fault_windows length");
  for (std::size_t i = 0; i < a.fault_windows.size(); ++i) {
    const FaultWindow& x = a.fault_windows[i];
    const FaultWindow& y = b.fault_windows[i];
    if (x.kind != y.kind || x.start != y.start || x.end != y.end ||
        x.tier != y.tier) {
      return fail(diff, at("fault_windows", i, "fields"));
    }
  }
  return true;
}

}  // namespace conscale
