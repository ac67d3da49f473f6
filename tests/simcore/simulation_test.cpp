#include "simcore/simulation.h"

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
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());  // second cancel is a no-op
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
