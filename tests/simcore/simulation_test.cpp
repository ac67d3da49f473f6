#include "simcore/simulation.h"

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace conscale {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, SimultaneousEventsFifoByScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, PastTimesClampToNow) {
  Simulation sim;
  sim.schedule_at(10.0, [] {});
  sim.run_all();
  bool fired = false;
  sim.schedule_at(2.0, [&] { fired = true; });  // in the past
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // clock never goes backwards
}

TEST(Simulation, NegativeDelayClampsToZero) {
  Simulation sim;
  bool fired = false;
  sim.schedule_after(-5.0, [&] { fired = true; });
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventHandle handle = sim.schedule_after(1.0, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  // The cancelled entry still sits in the queue, but it is not pending.
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(handle.cancel());  // second cancel is a no-op
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulation, HandleNotPendingAfterFiring) {
  Simulation sim;
  EventHandle handle = sim.schedule_after(1.0, [] {});
  sim.run_all();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Simulation, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<double> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(1.0); });
  sim.schedule_at(5.0, [&] { fired.push_back(5.0); });
  sim.run_until(3.0);
  EXPECT_EQ(fired, std::vector<double>{1.0});
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // clock advances to the deadline
  sim.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 5.0}));
}

TEST(Simulation, RunForIsRelative) {
  Simulation sim;
  sim.run_for(2.0);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_for(3.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_after(1.0, chain);
  };
  sim.schedule_after(1.0, chain);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, StepExecutesExactlyOne) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, ExecutedCounterSkipsCancelled) {
  Simulation sim;
  auto h = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  h.cancel();
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 1u);
}

static_assert(sizeof(EventCallback) == 24);
static_assert(sizeof(detail::QueuedEvent) == 24);

// Not trivially copyable, so EventCallback boxes it on the heap. Every
// constructor adds one to *live and the destructor takes one off: *live is
// back at 0 exactly when every copy was destroyed once.
struct CountedTarget {
  CountedTarget(int* live_count, int* call_count)
      : live(live_count), calls(call_count) {
    ++*live;
  }
  CountedTarget(const CountedTarget& other)
      : live(other.live), calls(other.calls) {
    ++*live;
  }
  CountedTarget& operator=(const CountedTarget&) = delete;
  ~CountedTarget() { --*live; }
  void operator()() const { ++*calls; }
  int* live;
  int* calls;
};

TEST(EventCallback, BoxedTargetIsDestroyedOnceFiredCancelledOrTornDown) {
  int live = 0;
  int calls = 0;
  {
    Simulation sim;
    sim.schedule_at(1.0, CountedTarget(&live, &calls));
    EventHandle cancelled = sim.schedule_at(2.0, CountedTarget(&live, &calls));
    sim.schedule_at(3.0, CountedTarget(&live, &calls));
    EXPECT_EQ(live, 3);  // one boxed copy per event, temporaries gone
    EXPECT_TRUE(cancelled.cancel());
    sim.run_until(2.5);  // fires the first, pops the cancelled one
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(live, 1);
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(live, 0);  // the pending one went with the Simulation
  EXPECT_EQ(calls, 1);
}

TEST(EventCallback, InlineTargetRunsOnlyWhenFired) {
  // An inline target is trivially copyable, so it has no destructor to
  // count; it must run once when fired and never after a cancel or with a
  // Simulation torn down.
  int calls = 0;
  const auto target = [&calls] { ++calls; };
  static_assert(std::is_trivially_copyable_v<decltype(target)> &&
                sizeof(target) <= 16);
  {
    Simulation sim;
    sim.schedule_at(1.0, target);
    sim.schedule_at(2.0, target).cancel();
    sim.schedule_at(3.0, target);
    sim.run_until(2.5);
    EXPECT_EQ(calls, 1);
  }
  EXPECT_EQ(calls, 1);
}

TEST(EventCallback, MovedFromIsEmpty) {
  int live = 0;
  int calls = 0;
  EventCallback inline_source([&calls] { ++calls; });
  EventCallback inline_moved(std::move(inline_source));
  EXPECT_FALSE(inline_source);
  ASSERT_TRUE(inline_moved);
  inline_moved();
  EXPECT_EQ(calls, 1);

  EventCallback boxed_source(CountedTarget(&live, &calls));
  EventCallback boxed_moved;
  boxed_moved = std::move(boxed_source);
  EXPECT_FALSE(boxed_source);
  ASSERT_TRUE(boxed_moved);
  EXPECT_EQ(live, 1);  // a move relocates the box, it copies no target
  boxed_moved();
  EXPECT_EQ(calls, 2);
  boxed_moved = std::move(inline_moved);  // releases the boxed target
  EXPECT_EQ(live, 0);
  EXPECT_FALSE(inline_moved);
}

TEST(EventCallback, EmptyCallbacksAndOutOfRangeGroupsAreRejected) {
  Simulation sim;
  EventCallback moved_from([] {});
  EventCallback taker(std::move(moved_from));
  EXPECT_THROW(sim.schedule_at(1.0, EventCallback()), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(1.0, std::move(moved_from)),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_keyed(1.0, 1, 0, EventCallback()),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_keyed(1.0, std::uint64_t{1} << 32, 0, [] {}),
               std::out_of_range);
  // Group 0 is the plain events': a keyed event there could tie one.
  EXPECT_THROW(sim.schedule_keyed(1.0, 0, 0, [] {}), std::out_of_range);
  const std::uint64_t drawn = sim.reserve_sequence();
  EXPECT_THROW(sim.schedule_reserved(1.0, drawn, EventCallback()),
               std::invalid_argument);
  // A plain sequence must be drawn before it is scheduled under.
  EXPECT_THROW(sim.schedule_reserved(1.0, drawn + 1, [] {}),
               std::out_of_range);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.schedule_keyed(1.0, 0xffffffffu, 0, [] {}).pending());
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(PeriodicTask, FiresAtPeriod) {
  Simulation sim;
  std::vector<double> times;
  PeriodicTask task(sim, 0.5, [&](SimTime t) { times.push_back(t); });
  sim.run_until(2.2);
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[3], 2.0);
}

TEST(PeriodicTask, StopHaltsFiring) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, 1.0, [&](SimTime) { ++count; });
  sim.run_until(2.5);
  task.stop();
  EXPECT_FALSE(task.running());
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, DestructorCancels) {
  Simulation sim;
  int count = 0;
  {
    PeriodicTask task(sim, 1.0, [&](SimTime) { ++count; });
    sim.run_until(1.5);
  }
  sim.run_until(10.0);
  EXPECT_EQ(count, 1);
}

TEST(PeriodicTask, CallbackCanStopItself) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, 1.0, [&](SimTime) {
    if (++count == 3) task.stop();
  });
  sim.run_until(100.0);
  EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace conscale
