// Microbenchmarks (google-benchmark) for the hot paths of the simulator and
// the SCT pipeline: event scheduling, processor-sharing churn, token-pool
// traffic, interval aggregation, scatter folding, estimation, and the lane
// engine's messages and round barrier. These
// bound the cost per simulated event — what the wall-clock time of every
// figure bench is made of.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "metrics/interval.h"
#include "metrics/warehouse.h"
#include "resources/ps_resource.h"
#include "resources/token_pool.h"
#include "sct/estimator.h"
#include "sct/scatter.h"
#include "simcore/lanes/actor.h"
#include "simcore/lanes/lane_engine.h"
#include "simcore/simulation.h"
#include "tier/server.h"
#include "workload/client.h"
#include "workload/session_shard.h"
#include "workload/trace.h"

namespace conscale {
namespace {

void BM_EventScheduleAndRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    Simulation sim;
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(rng.uniform(0.0, 100.0), [] {});
    }
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) *
                          state.iterations());
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1024)->Arg(16384);

void BM_EventCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    std::vector<EventHandle> handles;
    handles.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      handles.push_back(sim.schedule_at(static_cast<double>(i), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_EventCancelHeavy);

void BM_EventChurnScheduleCancelFire(benchmark::State& state) {
  // The timer-reschedule pattern every PS resource and monitor runs:
  // schedule a completion, cancel it when the share changes, schedule a
  // replacement — the arena's allocate/release fast path under a live queue.
  const auto live = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  for (auto _ : state) {
    Simulation sim;
    std::vector<EventHandle> handles(live);
    SimTime t = 0.0;
    for (std::size_t i = 0; i < live; ++i) {
      handles[i] = sim.schedule_at(t + rng.uniform(1.0, 2.0), [] {});
    }
    for (int round = 0; round < 64; ++round) {
      for (std::size_t i = 0; i < live; ++i) {
        handles[i].cancel();
        handles[i] = sim.schedule_at(t + rng.uniform(1.0, 2.0), [] {});
      }
      t += 0.5;
      sim.run_until(t);
    }
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(live) * 64 *
                          state.iterations());
}
BENCHMARK(BM_EventChurnScheduleCancelFire)->Arg(16)->Arg(256);

void BM_PsResourceChurn(benchmark::State& state) {
  const auto concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    ProcessorSharingResource cpu(sim, 2, 1.0, ContentionModel{8.0, 0.01, 1.0});
    Rng rng(7);
    int completions = 0;
    // Keep `concurrency` jobs alive; every completion resubmits.
    std::function<void()> resubmit = [&] {
      ++completions;
      if (completions < 2000) {
        cpu.submit(rng.exponential(0.001), resubmit);
      }
    };
    for (int i = 0; i < concurrency; ++i) {
      cpu.submit(rng.exponential(0.001), resubmit);
    }
    sim.run_all();
    benchmark::DoNotOptimize(completions);
  }
  state.SetItemsProcessed(2000 * state.iterations());
}
BENCHMARK(BM_PsResourceChurn)->Arg(4)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

void BM_WarehouseIngestQuery(benchmark::State& state) {
  // The monitoring hot path: 4 servers pushing 50 ms samples into the
  // warehouse with a windowed estimator query every 100 ingests (the 5 s
  // refresh), on top of an already-long series (realistic run lengths).
  const auto prefill = static_cast<std::size_t>(state.range(0));
  constexpr int kServers = 4;
  constexpr int kSteps = 2000;
  const std::vector<std::string> names = {"Tomcat1", "Tomcat2", "MySQL1",
                                          "MySQL2"};
  for (auto _ : state) {
    state.PauseTiming();
    MetricsWarehouse w;
    // The monitor interns each server name once at attach time and records
    // by dense id thereafter — mirror that here so the bench measures the
    // actual per-sample cost, not a string hash per ingest.
    std::vector<MetricsWarehouse::SeriesId> ids;
    for (const auto& name : names) ids.push_back(w.server_id(name));
    IntervalSample s;
    s.throughput = 1000.0;
    s.mean_rt = 0.01;
    s.concurrency = 8.0;
    s.completions = 50;
    for (std::size_t i = 0; i < prefill; ++i) {
      s.t_end = 0.05 * static_cast<double>(i + 1);
      for (auto id : ids) w.record_server(id, s);
    }
    state.ResumeTiming();
    double newest = 0.0;
    for (int step = 0; step < kSteps; ++step) {
      s.t_end = 0.05 * static_cast<double>(prefill + step + 1);
      newest = s.t_end;
      for (auto id : ids) w.record_server(id, s);
      if (step % 100 == 99) {
        for (auto id : ids) {
          const auto window = w.server_window(id, 180.0, newest);
          benchmark::DoNotOptimize(window.size());
        }
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kSteps) * kServers *
                          state.iterations());
}
BENCHMARK(BM_WarehouseIngestQuery)->Arg(3600)->Arg(14400);

void BM_TokenPoolAcquireRelease(benchmark::State& state) {
  TokenPool pool("bench", 16);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      pool.acquire([] {});
    }
    for (int i = 0; i < 64; ++i) pool.release();
  }
  state.SetItemsProcessed(64 * state.iterations());
}
BENCHMARK(BM_TokenPoolAcquireRelease);

void BM_ServerRequestPath(benchmark::State& state) {
  // Full per-request path through one server: thread pool, CPU phase,
  // pure delay, departure hooks.
  RequestClass cls;
  cls.name = "bench";
  cls.demand_cv = 0.2;
  cls.tiers.resize(1);
  cls.tiers[0].cpu_pre = 0.0005;
  cls.tiers[0].pure_delay = 0.002;
  for (auto _ : state) {
    Simulation sim;
    Server::Params params;
    params.thread_pool_size = 32;
    Server server(sim, params);
    int done = 0;
    std::function<void()> feed = [&] {
      if (done >= 1000) return;
      RequestContext ctx;
      ctx.id = static_cast<std::uint64_t>(done);
      ctx.request_class = &cls;
      server.handle(ctx, [&] { ++done; });
    };
    for (int i = 0; i < 1000; ++i) sim.schedule_at(i * 0.0005, feed);
    sim.run_all();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(1000 * state.iterations());
}
BENCHMARK(BM_ServerRequestPath);

void BM_ScatterFold(benchmark::State& state) {
  Rng rng(3);
  std::vector<IntervalSample> samples(10000);
  for (auto& s : samples) {
    s.concurrency = rng.uniform(1.0, 80.0);
    s.throughput = rng.uniform(100.0, 8000.0);
    s.mean_rt = rng.uniform(0.001, 0.2);
    s.completions = 5;
  }
  for (auto _ : state) {
    ScatterSet scatter;
    scatter.add_all(samples);
    benchmark::DoNotOptimize(scatter.bucket_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples.size()) *
                          state.iterations());
}
BENCHMARK(BM_ScatterFold);

void BM_SctEstimate(benchmark::State& state) {
  Rng rng(5);
  ScatterSet scatter;
  for (int rep = 0; rep < 40; ++rep) {
    for (int q = 1; q <= 80; ++q) {
      IntervalSample s;
      s.concurrency = q;
      const double tp = q <= 15 ? 5000.0 * q / 15.0
                       : q <= 35 ? 5000.0
                                 : 5000.0 - 40.0 * (q - 35);
      s.throughput = rng.normal(tp, 150.0);
      s.completions = 5;
      scatter.add(s);
    }
  }
  SctEstimator estimator;
  for (auto _ : state) {
    auto range = estimator.estimate(scatter);
    benchmark::DoNotOptimize(range);
  }
}
BENCHMARK(BM_SctEstimate);

void BM_PopulationWake(benchmark::State& state) {
  // The closed-loop client's wake-up path alone: users think (exponential,
  // 1.5 s mean) and the "system" replies at once. The users' wake-ups live
  // in ClosedLoopCore's heap under one kernel event, so 16x more users may
  // cost a log factor per wake-up, never a linear one (check_bench_ratios.py
  // gates the ratio).
  const WorkloadTrace trace =
      make_constant_trace(static_cast<double>(state.range(0)), 20.0);
  RequestClass only;
  only.name = "bench";
  only.weight = 1.0;
  only.tiers.resize(1);
  const RequestMix mix({only});
  const SubmitFn instant = [](const RequestContext&,
                              std::function<void(RequestOutcome)> done) {
    done(RequestOutcome::kServed);
  };
  std::int64_t wakes = 0;
  for (auto _ : state) {
    Simulation sim;
    ClientPopulation clients(sim, trace, mix, instant, {});
    sim.run_until(10.0);
    benchmark::DoNotOptimize(clients.stats().completed);
    wakes += static_cast<std::int64_t>(clients.stats().issued);
  }
  state.SetItemsProcessed(wakes);
}
BENCHMARK(BM_PopulationWake)->Arg(4096)->Arg(65536);

// ---- lane engine (src/simcore/lanes) ---------------------------------------

/// A SessionShard of `sessions` users (5 s mean think time) on `shard_lane`
/// behind a LaneGateway on lane 0, over the 50 ms client network, run for
/// 10 simulated seconds; returns the events the engine executed.
std::uint64_t run_session_lanes(lanes::LaneEngine& engine,
                                std::size_t shard_lane, std::size_t sessions,
                                std::uint64_t seed, SubmitFn submit) {
  RequestClass only;
  only.name = "bench";
  only.weight = 1.0;
  only.tiers.resize(1);
  const RequestMix mix({only});
  const WorkloadTrace trace =
      make_constant_trace(static_cast<double>(sessions), 20.0);
  engine.declare_channel(shard_lane, 0, 0.05);
  engine.declare_channel(0, shard_lane, 0.05);
  LaneGateway gateway(engine, 0, std::move(submit), 0.05);
  SessionShard::Params params;
  params.think_time_mean = 5.0;
  params.seed = seed;
  SessionShard shard(engine, shard_lane, 0, 1, trace, mix, gateway, params);
  engine.run(10.0);
  benchmark::DoNotOptimize(shard.stats().completed);
  return engine.stats().events;
}

void BM_LaneSessionChurn(benchmark::State& state) {
  // The client-edge cut: a real SessionShard and LaneGateway, the system
  // replying at once. Per-event cost must stay near-flat in the session
  // count: the users' wake-ups live in the shard's heap, so 16x more
  // sessions may cost a log factor, never a linear one
  // (check_bench_ratios.py gates the ratio).
  const auto sessions = static_cast<std::size_t>(state.range(0));
  const SubmitFn instant = [](const RequestContext&,
                              std::function<void(RequestOutcome)> done) {
    done(RequestOutcome::kServed);
  };
  std::int64_t events = 0;
  for (auto _ : state) {
    lanes::LaneEngine::Options options;
    options.lanes = 2;
    options.threads = 2;
    lanes::LaneEngine engine(options);
    events += static_cast<std::int64_t>(
        run_session_lanes(engine, 1, sessions, /*seed=*/29, instant));
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_LaneSessionChurn)->Arg(4096)->Arg(65536);

/// The backend stand-in of BM_LaneTierChurn: one end of a 10 ms LAN hop,
/// which runs a callback on the other end's lane.
class BenchLanEnd final : public lanes::LaneActor {
 public:
  BenchLanEnd(lanes::LaneEngine& engine, std::size_t lane)
      : LaneActor(engine, lane) {}
  void send(const BenchLanEnd& to, EventCallback callback) {
    post(to.lane(), 0.01, std::move(callback));
  }
};

void BM_LaneTierChurn(benchmark::State& state) {
  // The tier-laned bench_scale hot path: BM_LaneSessionChurn's shard and
  // gateway, with every request crossing a 10 ms LAN hop to a backend on
  // lane 1 and back before it completes. The window is a fifth of the
  // client network's, so rounds add to the wake-up churn. Like
  // BM_LaneSessionChurn the per-event cost must stay near-flat in the
  // session count (check_bench_ratios.py gates the ratio).
  const auto sessions = static_cast<std::size_t>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    lanes::LaneEngine::Options options;
    options.lanes = 3;
    options.threads = 3;
    lanes::LaneEngine engine(options);
    engine.declare_channel(0, 1, 0.01);  // frontend -> backend (LAN hop)
    engine.declare_channel(1, 0, 0.01);  // backend -> frontend (LAN hop)
    BenchLanEnd frontend(engine, 0);
    BenchLanEnd backend(engine, 1);
    const SubmitFn one_hop = [&frontend, &backend](
                                 const RequestContext&,
                                 std::function<void(RequestOutcome)> done) {
      frontend.send(backend, [&frontend, &backend,
                              done = std::move(done)]() mutable {
        backend.send(frontend, [done = std::move(done)] {
          done(RequestOutcome::kServed);
        });
      });
    };
    events += static_cast<std::int64_t>(
        run_session_lanes(engine, 2, sessions, /*seed=*/31, one_hop));
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_LaneTierChurn)->Arg(4096)->Arg(65536);

/// One lane of BM_LaneRounds' ring: each arrival posts the token on to the
/// next lane over the 1 ms channel.
class BenchRingLane final : public lanes::LaneActor {
 public:
  BenchRingLane(lanes::LaneEngine& engine, std::size_t lane)
      : LaneActor(engine, lane) {}
  void set_next(BenchRingLane* next) { next_ = next; }
  void start() {
    schedule_at(0.0, [this] { receive(); });
  }

 private:
  void receive() {
    post(next_->lane(), 0.001, [next = next_] { next->receive(); });
  }
  BenchRingLane* next_ = nullptr;
};

void BM_LaneRounds(benchmark::State& state) {
  // The round barrier alone: 4 lanes in a ring, one token each, so every
  // 1 ms window each lane receives one message and posts one, and a round
  // is 4 one-event lanes. threads=1 drains each round's work list on the
  // caller alone; threads=4 shares it with three workers. Reported as
  // rounds per second of wall time.
  constexpr std::size_t kLanes = 4;
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    lanes::LaneEngine::Options options;
    options.lanes = kLanes;
    options.threads = threads;
    lanes::LaneEngine engine(options);
    std::vector<std::unique_ptr<BenchRingLane>> ring;
    for (std::size_t i = 0; i < kLanes; ++i) {
      engine.declare_channel(i, (i + 1) % kLanes, 0.001);
      ring.push_back(std::make_unique<BenchRingLane>(engine, i));
    }
    for (std::size_t i = 0; i < kLanes; ++i) {
      ring[i]->set_next(ring[(i + 1) % kLanes].get());
      ring[i]->start();
    }
    engine.run(2.0);
    rounds += engine.stats().windows;
    benchmark::DoNotOptimize(engine.stats().windows);
    benchmark::DoNotOptimize(engine.stats().events);
  }
  state.counters["rounds"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LaneRounds)->Arg(1)->Arg(4)->UseRealTime();

void BM_TraceGeneration(benchmark::State& state) {
  TraceParams params;
  for (auto _ : state) {
    for (TraceKind kind : all_trace_kinds()) {
      const WorkloadTrace trace = make_trace(kind, params);
      benchmark::DoNotOptimize(trace.peak_users());
    }
  }
}
BENCHMARK(BM_TraceGeneration);

}  // namespace
}  // namespace conscale

BENCHMARK_MAIN();
