// Kernel-level tests of the lane-partitioned PDES engine: canonical keyed
// ordering, windowed execution primitives, cross-lane messaging, the
// declared-channel and lane-index guards, the serialized control lane,
// messages scheduled rounds ahead of their time, errors raised on a worker
// thread, the round barrier under many threads, and the window the engine
// derives from its channels. The system-level
// byte-identity contract (1 vs K threads over full experiment runs) lives
// in tests/experiments/lane_determinism_test.cpp.
#include "simcore/lanes/lane_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "simcore/lanes/actor.h"

namespace conscale {
namespace {

using lanes::LaneActor;
using lanes::LaneEngine;

// ---- keyed scheduling on the plain Simulation -----------------------------

TEST(KeyedScheduling, PlainEventsRunBeforeKeyedAtEqualTime) {
  Simulation sim;
  std::string order;
  sim.schedule_keyed(1.0, /*group=*/7, /*seq=*/0, [&] { order += 'k'; });
  sim.schedule_at(1.0, [&] { order += 'p'; });
  sim.run_until(2.0);
  EXPECT_EQ(order, "pk");
}

TEST(KeyedScheduling, EqualTimeKeyedOrderIsByStreamThenSeq) {
  Simulation sim;
  std::string order;
  // Inserted in scrambled order; execution must follow (stream, seq).
  sim.schedule_keyed(1.0, 2, 0, [&] { order += 'c'; });
  sim.schedule_keyed(1.0, 1, 1, [&] { order += 'b'; });
  sim.schedule_keyed(1.0, 3, 5, [&] { order += 'd'; });
  sim.schedule_keyed(1.0, 1, 0, [&] { order += 'a'; });
  sim.run_until(2.0);
  EXPECT_EQ(order, "abcd");
}

TEST(KeyedScheduling, RunBeforeIsExclusiveAndNextEventTimeReports) {
  Simulation sim;
  int ran = 0;
  sim.schedule_at(1.0, [&] { ++ran; });
  sim.schedule_at(2.0, [&] { ++ran; });
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 1.0);
  sim.run_before(2.0);  // exclusive: the t=2 event must stay queued
  EXPECT_EQ(ran, 1);
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 2.0);
  sim.run_before(std::nextafter(2.0, 3.0));
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(std::isinf(sim.next_event_time()));
}

// ---- cross-lane ping-pong -------------------------------------------------

/// Appends "(tag, time)" marks to a lane-local trace; bounces a message to
/// its peer until the horizon. Only its own lane ever touches its trace.
class PingPonger final : public LaneActor {
 public:
  PingPonger(LaneEngine& engine, std::size_t lane, char tag,
             SimDuration net_delay)
      : LaneActor(engine, lane), tag_(tag), net_delay_(net_delay) {}

  void set_peer(PingPonger* peer) { peer_ = peer; }

  void bounce() {
    trace_.push_back(std::to_string(sim().now()) + tag_);
    if (sim().now() > 0.9) return;
    post(peer_->lane(), net_delay_, [peer = peer_] { peer->bounce(); });
  }

  void kick() {
    schedule_at(0.0, [this] { bounce(); });
  }

  const std::vector<std::string>& trace() const { return trace_; }

 private:
  char tag_;
  SimDuration net_delay_;
  PingPonger* peer_ = nullptr;
  std::vector<std::string> trace_;
};

/// Two lanes, by default one thread each.
LaneEngine::Options two_lanes(std::size_t threads = 2) {
  LaneEngine::Options options;
  options.lanes = 2;
  options.threads = threads;
  return options;
}

void declare_both_ways(LaneEngine& engine, SimDuration delay) {
  engine.declare_channel(0, 1, delay);
  engine.declare_channel(1, 0, delay);
}

std::vector<std::string> ping_pong_trace(std::size_t threads, char which) {
  LaneEngine engine(two_lanes(threads));
  declare_both_ways(engine, 0.05);
  PingPonger a(engine, 0, 'a', 0.05);
  PingPonger b(engine, 1, 'b', 0.05);
  a.set_peer(&b);
  b.set_peer(&a);
  a.kick();
  engine.run(1.0);
  EXPECT_GT(engine.stats().windows, 0u);
  EXPECT_GT(engine.stats().messages, 0u);
  return which == 'a' ? a.trace() : b.trace();
}

TEST(LaneEngine, PingPongIsIdenticalAcrossThreadCounts) {
  // Same actors, same lanes, different pool width: the coordinator alone
  // versus the coordinator and a worker thread. The observable traces must match
  // element for element — the core of the 1-thread ≡ K-thread contract.
  EXPECT_EQ(ping_pong_trace(1, 'a'), ping_pong_trace(2, 'a'));
  EXPECT_EQ(ping_pong_trace(1, 'b'), ping_pong_trace(2, 'b'));
  EXPECT_FALSE(ping_pong_trace(1, 'a').empty());
}

TEST(LaneEngine, ConstructionTimePostsAreDelivered) {
  LaneEngine engine(two_lanes());
  declare_both_ways(engine, 0.05);
  PingPonger a(engine, 0, 'a', 0.05);
  PingPonger b(engine, 1, 'b', 0.05);
  a.set_peer(&b);
  b.set_peer(&a);
  a.kick();  // keyed event at t=0 on lane 0, posts to lane 1 from the run
  engine.run(0.2);
  EXPECT_FALSE(b.trace().empty());
}

TEST(LaneEngine, DeclareChannelRejectsNonPositiveDelayAndSelfChannels) {
  // Zero lookahead admits no conservative parallelism.
  LaneEngine engine(two_lanes());
  EXPECT_THROW(engine.declare_channel(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(engine.declare_channel(0, 1, -0.01), std::invalid_argument);
  EXPECT_THROW(engine.declare_channel(0, 0, 0.05), std::invalid_argument);
  EXPECT_THROW(engine.declare_channel(0, 2, 0.05), std::out_of_range);
}

/// An actor that (incorrectly) posts with less delay than its channel
/// declares — the conservative-synchronization guard must refuse.
class Violator final : public LaneActor {
 public:
  Violator(LaneEngine& engine, std::size_t lane)
      : LaneActor(engine, lane) {}
  void kick(SimDuration delay = 0.001) {
    schedule_at(0.1, [this, delay] { post(lane() ^ 1, delay, [] {}); });
  }
};

// ---- dependency cycles and the serialized control lane --------------------

/// Ring forwarder: lane i forwards a token to the next lane across its
/// declared channel, recording every arrival instant. The ring is the
/// canonical conservative-PDES deadlock shape — every lane waits on its
/// predecessor — so completing at all shows every round advances the
/// global clock (bound > t_all, see lane_engine.h).
class RingHopper final : public LaneActor {
 public:
  RingHopper(LaneEngine& engine, std::size_t lane, SimDuration delay)
      : LaneActor(engine, lane), delay_(delay) {}

  void set_next(RingHopper* next) { next_ = next; }

  void kick() {
    schedule_at(0.0, [this] { hop(); });
  }

  void hop() {
    trace_.push_back(sim().now());
    if (sim().now() > 3.0) return;
    post(next_->lane(), delay_, [next = next_] { next->hop(); });
  }

  const std::vector<double>& trace() const { return trace_; }

 private:
  SimDuration delay_;
  RingHopper* next_ = nullptr;
  std::vector<double> trace_;
};

/// Three-lane ring whose channels declare each hop's true delay (20x skew);
/// the window is the narrowest hop. Returns every lane's arrival trace.
std::vector<std::vector<double>> run_ring(std::size_t threads) {
  const std::vector<SimDuration> delays = {0.01, 0.05, 0.2};
  LaneEngine::Options options;
  options.lanes = 3;
  options.threads = threads;
  LaneEngine engine(options);
  for (std::size_t i = 0; i < 3; ++i) {
    engine.declare_channel(i, (i + 1) % 3, delays[i]);
  }
  EXPECT_DOUBLE_EQ(engine.lookahead(), 0.01);
  std::vector<std::unique_ptr<RingHopper>> hoppers;
  for (std::size_t i = 0; i < 3; ++i) {
    hoppers.push_back(std::make_unique<RingHopper>(engine, i, delays[i]));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    hoppers[i]->set_next(hoppers[(i + 1) % 3].get());
  }
  hoppers[0]->kick();
  engine.run(4.0);
  std::vector<std::vector<double>> traces;
  for (const auto& hopper : hoppers) traces.push_back(hopper->trace());
  return traces;
}

TEST(LaneEngine, RingCycleOnSkewedChannelsMatchesSingleThread) {
  // Deadlock-freedom on a dependency cycle: the threaded run must
  // terminate with the exact event history of the single-threaded one.
  const auto threaded = run_ring(/*threads=*/3);
  const auto serial = run_ring(/*threads=*/1);
  EXPECT_EQ(threaded, serial);
  EXPECT_FALSE(threaded[0].empty());
  EXPECT_FALSE(threaded[2].empty());
}

/// Self-rescheduling local timer chain: lane-local events only, counted.
struct TickChain {
  Simulation& sim;
  double period;
  double horizon;
  int ticks = 0;

  void start() {
    sim.schedule_at(0.0, [this] { tick(); });
  }
  void tick() {
    ++ticks;
    if (sim.now() + period <= horizon) {
      sim.schedule_after(period, [this] { tick(); });
    }
  }
};

/// Busy pair (lanes 1<->2, thin mutual channels, dense local chains) plus a
/// slow observer (lane 3) behind a fat channel from lane 2, and a
/// serialized control lane 0 whose off-grid instants cap rounds short of
/// the window — as a tier cut's control cell does.
struct ControlLaneResult {
  int ticks[3] = {0, 0, 0};
  lanes::LaneEngineStats stats;
};

ControlLaneResult run_control_lane_topology(std::size_t threads) {
  LaneEngine::Options options;
  options.lanes = 4;
  options.threads = threads;
  options.serialize_lane0 = true;
  LaneEngine engine(options);
  engine.declare_channel(1, 2, 0.02);
  engine.declare_channel(2, 1, 0.02);
  engine.declare_channel(2, 3, 5.0);
  TickChain control{engine.lane(0).sim(), 0.245, 3.0};
  TickChain fast1{engine.lane(1).sim(), 0.001, 3.0};
  TickChain fast2{engine.lane(2).sim(), 0.001, 3.0};
  TickChain slow3{engine.lane(3).sim(), 1.0, 3.0};
  control.start();
  fast1.start();
  fast2.start();
  slow3.start();
  engine.run(3.0);
  ControlLaneResult result;
  result.ticks[0] = fast1.ticks;
  result.ticks[1] = fast2.ticks;
  result.ticks[2] = slow3.ticks;
  result.stats = engine.stats();
  return result;
}

TEST(LaneEngine, SerializedControlLaneMatchesSingleThread) {
  // Serial instants interleave with parallel rounds; the thread count may
  // change neither.
  const ControlLaneResult threaded = run_control_lane_topology(4);
  const ControlLaneResult serial = run_control_lane_topology(1);
  EXPECT_EQ(threaded.ticks[0], serial.ticks[0]);
  EXPECT_EQ(threaded.ticks[1], serial.ticks[1]);
  EXPECT_EQ(threaded.ticks[2], serial.ticks[2]);
  EXPECT_GT(threaded.ticks[0], 100);
  EXPECT_EQ(threaded.ticks[2], 4);
  EXPECT_GT(threaded.stats.serial_rounds, 0u);
}

TEST(LaneEngine, RejectsPostOutsideDeclaredChannels) {
  // Every post must travel a declared channel.
  LaneEngine engine(two_lanes());
  engine.declare_channel(0, 1, 0.05);
  PingPonger a(engine, 0, 'a', 0.05);
  PingPonger b(engine, 1, 'b', 0.05);
  a.set_peer(&b);
  b.set_peer(&a);
  // a -> b rides the declared channel; b's bounce back has none.
  a.kick();
  EXPECT_THROW(engine.run(1.0), std::runtime_error);
}

TEST(LaneEngine, RejectsPostBelowChannelDelay) {
  // The post is checked against its own channel: below the window...
  {
    LaneEngine engine(two_lanes());
    declare_both_ways(engine, 0.05);
    Violator bad(engine, 0);  // posts with 0.001
    bad.kick();
    EXPECT_THROW(engine.run(1.0), std::runtime_error);
  }
  // ...and below a channel wider than the window.
  {
    LaneEngine engine(two_lanes());
    engine.declare_channel(0, 1, 0.2);
    engine.declare_channel(1, 0, 0.01);
    Violator bad(engine, 0);  // posts 0 -> 1 with 0.01
    bad.kick(0.01);
    EXPECT_THROW(engine.run(1.0), std::runtime_error);
  }
}

TEST(LaneEngine, PostRejectsOutOfRangeLanes) {
  LaneEngine engine(two_lanes());
  declare_both_ways(engine, 0.05);
  EXPECT_THROW(engine.post(2, 0, 1.0, 1, 0, [] {}), std::out_of_range);
  EXPECT_THROW(engine.post(0, 2, 1.0, 1, 0, [] {}), std::out_of_range);
  // Stream 0 is no actor's; delivery would key the event in group 0.
  EXPECT_THROW(engine.post(0, 1, 1.0, 0, 0, [] {}), std::out_of_range);
}

TEST(LaneEngine, PostRejectsAnEmptyCallback) {
  // At post time, not when the message is delivered rounds later.
  LaneEngine engine(two_lanes());
  declare_both_ways(engine, 0.05);
  EXPECT_THROW(engine.post(0, 1, 1.0, 1, 0, EventCallback()),
               std::invalid_argument);
}

TEST(LaneEngine, ActorRejectsOutOfRangeLane) {
  LaneEngine engine(two_lanes());
  EXPECT_THROW(Violator bad(engine, 2), std::out_of_range);
  // The refused actor took no stream id.
  EXPECT_EQ(engine.new_stream(), 1u);
}

TEST(LaneEngine, RejectsZeroLanes) {
  LaneEngine::Options options;
  options.lanes = 0;
  EXPECT_THROW(LaneEngine engine(options), std::invalid_argument);
}

TEST(LaneEngine, SoloRoundsCountRoundsWithOneActiveLane) {
  // Only lane 0 has events: every round has a single active lane. It runs
  // through the barrier like any other round and is counted as solo.
  LaneEngine::Options options;
  options.lanes = 3;
  options.threads = 3;
  LaneEngine engine(options);
  engine.declare_channel(0, 1, 0.05);
  Simulation& sim = engine.lane(0).sim();
  int ran = 0;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(0.1 * (i + 1), [&] { ++ran; });
  }
  engine.run(1.0);
  EXPECT_EQ(ran, 5);
  EXPECT_EQ(engine.stats().solo_rounds, 5u);
  EXPECT_EQ(engine.stats().windows, 5u);
}

// ---- early injection, worker errors and the barrier under load -----------

/// An actor that keeps its lane busy with keyed no-op events and posts
/// tagged messages to lane 0, each appending its tag to lane 0's trace.
class TagPoster final : public LaneActor {
 public:
  TagPoster(LaneEngine& engine, std::size_t lane,
            std::vector<std::string>& trace)
      : LaneActor(engine, lane), trace_(&trace) {}

  void busy_at(SimTime when) {
    schedule_at(when, [] {});
  }

  /// At `send`, posts one message per tag, in order, with `delay`.
  void post_at(SimTime send, SimDuration delay, std::vector<std::string> tags) {
    schedule_at(send, [this, delay, tags] {
      for (const std::string& tag : tags) {
        post(0, delay, [trace = trace_, tag] { trace->push_back(tag); });
      }
    });
  }

 private:
  std::vector<std::string>* trace_;
};

struct EarlyInjectionResult {
  std::vector<std::string> trace;
  std::size_t pending_before_delivery = 0;
  lanes::LaneEngineStats stats;
};

EarlyInjectionResult run_early_injection(std::size_t threads) {
  // Dyadic times keep every sum exact: the window is 1/64 s, and lane 1's
  // channel to lane 0 is 5 windows wide.
  constexpr double kTick = 1.0 / 64.0;
  LaneEngine::Options options;
  options.lanes = 3;
  options.threads = threads;
  LaneEngine engine(options);
  engine.declare_channel(1, 0, 5 * kTick);
  engine.declare_channel(2, 0, kTick);
  EarlyInjectionResult result;
  // Constructed first, so lane 2's actor has the lower stream id.
  TagPoster narrow(engine, 2, result.trace);
  TagPoster wide(engine, 1, result.trace);
  EXPECT_LT(narrow.stream(), wide.stream());
  // Lane 1 posts "a1", "a2" at 59/64 over the wide channel, so both
  // arrive in lane 0's inbox four rounds before they are due at 1.0;
  // lane 2 posts "b" at 63/64 over the narrow one, due at 1.0 as well.
  wide.post_at(59 * kTick, 5 * kTick, {"a1", "a2"});
  narrow.post_at(63 * kTick, kTick, {"b"});
  Simulation& dest = engine.lane(0).sim();
  for (int k = 60; k <= 63; ++k) {
    wide.busy_at(k * kTick);  // a parallel round at threads > 1
    dest.schedule_at(k * kTick, [&result, &dest, k] {
      result.trace.push_back("d" + std::to_string(k));
      if (k == 62) result.pending_before_delivery = dest.pending_events();
      // A plain event at the messages' time, scheduled after "a1" and "a2"
      // were injected and before "b" was.
      if (k == 63) {
        dest.schedule_at(1.0, [&result] { result.trace.push_back("plain"); });
      }
    });
  }
  engine.run(2.0);
  result.stats = engine.stats();
  return result;
}

TEST(LaneEngine, EarlyInjectedMessageKeepsItsOrder) {
  // At 1.0 lane 0 holds a plain event and three messages, scheduled in the
  // order a1, a2, plain, b. They run by key: the plain event (group 0)
  // first, then stream by stream (lane 2's actor before lane 1's), each
  // stream in seq order.
  const std::vector<std::string> expected = {"d60", "d61",   "d62", "d63",
                                             "plain", "b", "a1",  "a2"};
  for (const std::size_t threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    const EarlyInjectionResult result = run_early_injection(threads);
    EXPECT_EQ(result.trace, expected);
    // At 62/64 lane 0's queue holds its 63/64 event and both wide-channel
    // messages: they were scheduled rounds ahead of their time.
    EXPECT_EQ(result.pending_before_delivery, 3u);
    // Rounds at 59/64 (lane 1 posts), 60..63/64 (lane 0 runs between the
    // post and the delivery) and 1.0.
    EXPECT_EQ(result.stats.windows, 6u);
    EXPECT_EQ(result.stats.messages, 3u);
  }
}

TEST(LaneEngine, ExceptionOnAWorkerLaneIsRethrown) {
  // Two lanes meet at t = 0.1 before they go on: each waits until the
  // other has started, which only a second thread can do, so the caller
  // of run() and the worker run them side by side. The worker's lane
  // throws.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<int> thrower{-1};  // the lane that threw
  {
    LaneEngine engine(two_lanes(/*threads=*/2));
    declare_both_ways(engine, 0.05);
    for (const int lane : {0, 1}) {
      engine.lane(static_cast<std::size_t>(lane)).sim().schedule_at(0.1, [&, lane] {
        started.fetch_add(1);
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (started.load() < 2 && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
        if (std::this_thread::get_id() != caller) {
          thrower.store(lane);
          throw std::runtime_error("worker lane " + std::to_string(lane));
        }
      });
    }
    try {
      engine.run(1.0);
      ADD_FAILURE() << "run() returned instead of rethrowing";
    } catch (const std::runtime_error& error) {
      ASSERT_NE(thrower.load(), -1);
      EXPECT_EQ(std::string(error.what()),
                "worker lane " + std::to_string(thrower.load()));
    }
    EXPECT_EQ(started.load(), 2);
  }  // ~LaneEngine wakes and joins the parked worker.
}

/// One lane of a ring: every millisecond it posts a numbered message to
/// the next lane over a 1 ms channel and folds each arrival (its time and
/// number) into a digest.
class Relay final : public LaneActor {
 public:
  static constexpr SimDuration kHop = 0.001;

  Relay(LaneEngine& engine, std::size_t lane, SimTime horizon)
      : LaneActor(engine, lane), horizon_(horizon) {}

  void set_next(Relay* next) { next_ = next; }
  void start() {
    schedule_at(0.0, [this] { tick(); });
  }
  std::uint64_t digest() const { return digest_; }

 private:
  void tick() {
    post(next_->lane(), kHop, [next = next_, n = sent_++] { next->receive(n); });
    if (sim().now() + kHop <= horizon_) {
      schedule_after(kHop, [this] { tick(); });
    }
  }
  void receive(std::uint64_t n) {
    const auto time_bits = std::bit_cast<std::uint64_t>(sim().now());
    digest_ = (digest_ ^ time_bits ^ (n << 32)) * 1099511628211ULL;
  }

  SimTime horizon_;
  Relay* next_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t digest_ = 1469598103934665603ULL;
};

struct RelayResult {
  std::vector<std::uint64_t> digests;
  lanes::LaneEngineStats stats;
};

RelayResult run_relay_ring(std::size_t threads) {
  constexpr std::size_t kLanes = 6;
  LaneEngine::Options options;
  options.lanes = kLanes;
  options.threads = threads;
  LaneEngine engine(options);
  std::vector<std::unique_ptr<Relay>> relays;
  for (std::size_t i = 0; i < kLanes; ++i) {
    engine.declare_channel(i, (i + 1) % kLanes, Relay::kHop);
    relays.push_back(std::make_unique<Relay>(engine, i, /*horizon=*/5.5));
  }
  for (std::size_t i = 0; i < kLanes; ++i) {
    relays[i]->set_next(relays[(i + 1) % kLanes].get());
    relays[i]->start();
  }
  engine.run(6.0);
  RelayResult result;
  for (const auto& relay : relays) result.digests.push_back(relay->digest());
  result.stats = engine.stats();
  return result;
}

TEST(LaneEngine, BarrierStressMatchesSingleThread) {
  // Six busy lanes on six threads, more than a 2-vCPU host has, for
  // thousands of rounds: every round starts and ends on the barrier, and
  // the waiters must park and wake without losing a round.
  const RelayResult threaded = run_relay_ring(6);
  const RelayResult serial = run_relay_ring(1);
  EXPECT_EQ(threaded.digests, serial.digests);
  EXPECT_GE(threaded.stats.windows, 5000u);
  EXPECT_EQ(threaded.stats.windows, serial.stats.windows);
  EXPECT_EQ(threaded.stats.solo_rounds, 0u);
  EXPECT_EQ(threaded.stats.messages, serial.stats.messages);
  EXPECT_EQ(threaded.stats.events, serial.stats.events);
}

// ---- the window derived from the channels ---------------------------------

TEST(LaneEngine, WindowIsMinDeclaredDelay) {
  LaneEngine engine(two_lanes());
  engine.declare_channel(0, 1, 0.06);
  engine.declare_channel(1, 0, 0.08);
  engine.declare_channel(0, 1, 0.05);  // redeclaring keeps the minimum
  engine.declare_channel(0, 1, 0.07);
  EXPECT_DOUBLE_EQ(engine.lookahead(), 0.05);
  // Skew does not matter: the narrowest channel is the window.
  LaneEngine skewed(two_lanes());
  skewed.declare_channel(0, 1, 0.01);
  skewed.declare_channel(1, 0, 0.5);
  EXPECT_DOUBLE_EQ(skewed.lookahead(), 0.01);
}

TEST(LaneEngine, NoChannelsMeansNoWindow) {
  // Lanes that never exchange messages need no barrier: one round runs
  // every lane to the end.
  LaneEngine engine(two_lanes());
  EXPECT_TRUE(std::isinf(engine.lookahead()));
  TickChain ticks0{engine.lane(0).sim(), 0.1, 1.0};
  TickChain ticks1{engine.lane(1).sim(), 0.1, 1.0};
  ticks0.start();
  ticks1.start();
  engine.run(1.0);
  EXPECT_EQ(ticks0.ticks + ticks1.ticks, 22);
  EXPECT_EQ(engine.stats().windows, 1u);
}

}  // namespace
}  // namespace conscale
