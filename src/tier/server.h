// Server: the component-server model (Apache / Tomcat / MySQL stand-ins).
//
// Processing pipeline per request (thread-per-request, synchronous RPC —
// §III-A of the paper):
//
//   arrive -> [thread pool queue] -> acquire worker thread
//          -> CPU burst (cpu_pre, processor sharing w/ contention)
//          -> disk service (FCFS), if any
//          -> pure delay (network/protocol time holding the thread)
//          -> N sequential downstream RPCs, each optionally gated by the
//             downstream connection pool (the app tier's DB connection pool)
//          -> CPU burst (cpu_post)
//          -> release thread, report departure upstream
//
// Soft resources — the thread pool size and the downstream connection pool
// size — are runtime-resizable (the knobs ConScale's software agent turns).
// Hardware resources — core count / speed — are also runtime-adjustable
// (vertical scaling experiments, §III-C.1).
//
// The server exposes arrival/departure/admission hooks; the metrics layer
// builds the paper's 50 ms concurrency/throughput/response-time series from
// them without the model knowing about monitoring at all.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "resources/contention.h"
#include "resources/fcfs_resource.h"
#include "resources/ps_resource.h"
#include "resources/token_pool.h"
#include "simcore/simulation.h"
#include "workload/request.h"

namespace conscale {

class Server {
 public:
  struct Params {
    std::string name = "server";
    int tier_index = 0;  ///< which PhaseDemand entry of a request applies
    int cores = 1;
    double speed = 1.0;
    ContentionModel contention = {};
    int disk_channels = 1;
    std::size_t thread_pool_size = 64;
    /// 0 = this server makes no pooled downstream calls (calls pass through
    /// ungated); otherwise the connection-pool capacity.
    std::size_t downstream_pool_size = 0;
    std::uint64_t seed = 1;
  };

  /// Continuation invoked when this server finishes a request.
  using Completion = std::function<void()>;
  /// Wired by the cluster layer: forwards a sub-request to the next tier
  /// (usually through a load balancer) and calls the continuation on reply.
  using DownstreamFn = std::function<void(const RequestContext&, Completion)>;

  Server(Simulation& sim, Params params);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Entry point: process `ctx` and invoke `done` when complete.
  void handle(const RequestContext& ctx, Completion done);

  /// Crash semantics (VM failure, see cluster/vm.h): every in-flight request
  /// is errored — its completion fires immediately (the upstream sees a
  /// connection reset, not a hang) and it never counts as a departure — the
  /// CPU run queue and disk queue are wiped, and both pools reset to empty.
  /// The caller must stop routing to this server first. Returns the number
  /// of requests aborted.
  std::size_t fail();

  void set_downstream(DownstreamFn downstream);

  // ---- Soft-resource actuation (the paper's #threads / #DBconn knobs) ----
  void set_thread_pool_size(std::size_t size);
  void set_downstream_pool_size(std::size_t size);
  std::size_t thread_pool_size() const { return threads_.capacity(); }
  std::size_t downstream_pool_size() const {
    return downstream_pool_ ? downstream_pool_->capacity() : 0;
  }

  // ---- Hardware actuation (vertical scaling) ----
  void set_cores(int cores);
  int cores() const { return cpu_.cores(); }
  /// Effective per-core speed multiplier. Values < 1 model performance
  /// interference from co-located tenants (the Q-clouds problem): the VM
  /// keeps its vCPUs but each delivers fewer cycles.
  void set_cpu_speed(double speed) { cpu_.set_speed(speed); }
  double cpu_speed() const { return cpu_.speed(); }
  void set_contention(ContentionModel contention) {
    cpu_.set_contention(contention);
  }

  // ---- Observability ----
  const std::string& name() const { return params_.name; }
  int tier_index() const { return params_.tier_index; }
  /// Requests currently holding a worker thread (the paper's measured
  /// "workload concurrency" of the server).
  std::size_t processing() const { return threads_.in_use(); }
  /// Requests waiting for a worker thread.
  std::size_t queued() const { return threads_.waiting(); }
  /// Everything between arrival and departure.
  std::size_t in_flight() const { return in_flight_; }
  double cpu_busy_core_seconds() const { return cpu_.busy_core_seconds(); }
  double disk_busy_seconds() const { return disk_.busy_channel_seconds(); }
  std::uint64_t completed_requests() const { return completed_; }
  /// Requests errored by fail() over the server's lifetime.
  std::uint64_t aborted_requests() const { return aborted_; }

  /// Admission/departure hooks for the metrics layer. `rt` is the full
  /// in-server response time (arrival to departure, queueing included).
  /// `on_aborted` fires for each *admitted* request errored by fail(), so
  /// concurrency integrators can retire it without counting a completion.
  struct Hooks {
    std::function<void(SimTime)> on_admitted;
    std::function<void(SimTime, double rt)> on_departed;
    std::function<void(SimTime)> on_aborted;
  };
  void add_hooks(Hooks hooks) { hooks_.push_back(std::move(hooks)); }

 private:
  /// Address of a visit in visits_. Continuations capture [this, ref]: 16
  /// trivially copyable bytes, which std::function stores without a heap
  /// allocation. A ref whose generation no longer matches its slot is stale
  /// (the visit departed or fail() errored it) and its continuation no-ops.
  struct VisitRef {
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// One request's stay in this server, in a slab slot recycled through a
  /// free list (the simcore EventArena idiom).
  struct Visit {
    RequestContext ctx;
    Completion done;
    SimTime arrival = 0.0;
    const PhaseDemand* demand = nullptr;
    std::uint64_t arrival_seq = 0;  ///< fail() errors visits in this order
    int calls_remaining = 0;
    bool admitted = false;  ///< holds a worker thread
    /// Odd while the slot holds a live visit, even while it is free; bumped
    /// on allocation and on release.
    std::uint32_t generation = 0;
    std::uint32_t next_free = 0;
  };

  /// The live visit `ref` addresses, or nullptr when `ref` is stale. The
  /// pointer dies with the next call that can re-enter handle() (a
  /// completion, a downstream call, a token grant): the slab may grow.
  Visit* live(VisitRef ref);
  void release_visit(std::uint32_t slot);

  // One member function per phase of the pipeline above.
  void start_processing(VisitRef ref);
  void after_cpu(VisitRef ref);
  void after_disk(VisitRef ref);
  void after_delay(VisitRef ref);
  void run_downstream_calls(VisitRef ref);
  void finish(VisitRef ref);

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  Simulation& sim_;
  Params params_;
  Rng rng_;
  ProcessorSharingResource cpu_;
  FcfsResource disk_;
  TokenPool threads_;
  std::unique_ptr<TokenPool> downstream_pool_;
  DownstreamFn downstream_;
  std::vector<Hooks> hooks_;
  /// Every visit between arrival and departure; sized by the peak in-flight
  /// count, so a warm server allocates nothing per request.
  std::vector<Visit> visits_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_arrival_seq_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t aborted_ = 0;
};

}  // namespace conscale
