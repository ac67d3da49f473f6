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

/// System-lane stand-in: receives a request, replies across the channel.
class BenchEchoSink final : public lanes::LaneActor {
 public:
  explicit BenchEchoSink(lanes::LaneEngine& engine) : LaneActor(engine, 0) {}
  void on_request(std::size_t reply_lane, EventCallback reply) {
    post(reply_lane, 0.05, std::move(reply));
  }
};

/// Lane-engine load: `sessions` closed-loop sessions, each thinking on its
/// own keyed timer (exponential), that round-trip one message through the
/// sink — keyed timer churn and cross-lane messaging without the serving
/// system. SessionShard itself keeps its users' wake-ups in ClosedLoopCore's
/// heap, which BM_PopulationWake measures. The sink (on lane 0) only needs
/// on_request(reply_lane, reply).
template <typename Sink>
class BenchShard final : public lanes::LaneActor {
 public:
  BenchShard(lanes::LaneEngine& engine, std::size_t lane, Sink& sink,
             std::size_t sessions, std::uint64_t seed)
      : LaneActor(engine, lane), sink_(&sink), rng_(seed) {
    for (std::size_t i = 0; i < sessions; ++i) think();
  }

 private:
  void think() {
    schedule_after(rng_.exponential(5.0), [this] { submit(); });
  }
  void submit() {
    const std::size_t reply_lane = lane();
    post(0, 0.05, [this, reply_lane] {
      sink_->on_request(reply_lane, [this] { think(); });
    });
  }
  Sink* sink_;
  Rng rng_;
};

void BM_LaneSessionChurn(benchmark::State& state) {
  // Per-event cost must stay near-flat in the session count: the pending
  // think timers live in a binary heap, so 16x more sessions may cost a
  // log factor, never a linear one (check_bench_ratios.py gates the ratio).
  const auto sessions = static_cast<std::size_t>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    lanes::LaneEngine::Options options;
    options.lanes = 2;
    options.threads = 2;
    lanes::LaneEngine engine(options);
    engine.declare_channel(1, 0, 0.05);  // shard -> sink (client net)
    engine.declare_channel(0, 1, 0.05);  // sink -> shard (client net)
    BenchEchoSink sink(engine);
    BenchShard shard(engine, 1, sink, sessions, /*seed=*/29);
    engine.run(10.0);
    events += static_cast<std::int64_t>(engine.stats().events);
    benchmark::DoNotOptimize(engine.stats().messages);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_LaneSessionChurn)->Arg(4096)->Arg(65536);

/// Backend tier one LAN hop behind the frontend (the tier-laned cut).
class BenchBackendTier final : public lanes::LaneActor {
 public:
  explicit BenchBackendTier(lanes::LaneEngine& engine) : LaneActor(engine, 1) {}
  void on_request(EventCallback reply_to_frontend) {
    post(0, 0.01, std::move(reply_to_frontend));
  }
};

/// Frontend tier: forwards every request across the 10 ms LAN hop to the
/// backend on lane 1 and the reply back over the 50 ms client network.
class BenchFrontendTier final : public lanes::LaneActor {
 public:
  BenchFrontendTier(lanes::LaneEngine& engine, BenchBackendTier& backend)
      : LaneActor(engine, 0), backend_(&backend) {}
  void on_request(std::size_t reply_lane, EventCallback reply) {
    BenchBackendTier* backend = backend_;
    post(1, 0.01, [this, backend, reply_lane,
                   reply = std::move(reply)]() mutable {
      backend->on_request([this, reply_lane, reply = std::move(reply)]() mutable {
        post(reply_lane, 0.05, std::move(reply));
      });
    });
  }

 private:
  BenchBackendTier* backend_;
};

void BM_LaneTierChurn(benchmark::State& state) {
  // The tier-laned bench_scale hot path: a 50 ms client network and a
  // 10 ms LAN hop, so the window is a fifth of BM_LaneSessionChurn's and
  // rounds add to the keyed timer churn. Like BM_LaneSessionChurn the
  // per-event cost must stay near-flat in the session count
  // (check_bench_ratios.py gates the ratio).
  const auto sessions = static_cast<std::size_t>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    lanes::LaneEngine::Options options;
    options.lanes = 3;
    options.threads = 3;
    lanes::LaneEngine engine(options);
    engine.declare_channel(2, 0, 0.05);  // shard -> frontend (client net)
    engine.declare_channel(0, 2, 0.05);  // frontend -> shard (client net)
    engine.declare_channel(0, 1, 0.01);  // frontend -> backend (LAN hop)
    engine.declare_channel(1, 0, 0.01);  // backend -> frontend (LAN hop)
    BenchBackendTier backend(engine);
    BenchFrontendTier frontend(engine, backend);
    BenchShard shard(engine, 2, frontend, sessions, /*seed=*/31);
    engine.run(10.0);
    events += static_cast<std::int64_t>(engine.stats().events);
    benchmark::DoNotOptimize(engine.stats().windows);
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
  // is 4 one-event lanes. threads=1 runs the lanes inline on the caller;
  // threads=4 pays a barrier per round. Reported as rounds per second of
  // wall time.
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
