#include "workload/population.h"

#include <vector>

#include <gtest/gtest.h>

#include "simcore/simulation.h"

namespace conscale {
namespace {

// Users at t = 0, 1, 2, 3 (read at the sample instants, no interpolation).
WorkloadTrace steps(std::vector<double> users) {
  return WorkloadTrace("steps", 1.0, std::move(users));
}

void add_users(ClosedLoopCore& core, std::size_t n) {
  for (; n > 0; --n) core.add_user();
}

TEST(ClosedLoopCore, RetargetMarksExcessThenCancelsRetirementsFirst) {
  const WorkloadTrace trace = steps({10.0, 4.0, 7.0, 12.0});
  ClosedLoopCore core(trace);
  EXPECT_EQ(core.retarget(0.0), 10u);
  add_users(core, 10);

  // 10 -> 4: six users are marked to retire, none leaves yet, and the
  // active count still includes them.
  EXPECT_EQ(core.retarget(1.0), 0u);
  EXPECT_EQ(core.active_users(), 10u);

  // 4 -> 7: three of the six pending retirements are cancelled instead of
  // spawning anyone.
  EXPECT_EQ(core.retarget(2.0), 0u);
  EXPECT_EQ(core.active_users(), 10u);

  // Three retirements are left; they happen at the users' next activities.
  EXPECT_TRUE(core.maybe_retire(0));
  EXPECT_TRUE(core.maybe_retire(1));
  EXPECT_EQ(core.active_users(), 8u);

  // 7 -> 12: alive = 8 - 1 pending = 7; the last pending retirement is
  // cancelled, then four users are spawned.
  EXPECT_EQ(core.retarget(3.0), 4u);
  EXPECT_FALSE(core.maybe_retire(2));
  EXPECT_EQ(core.active_users(), 8u);
}

TEST(ClosedLoopCore, FreedSlotIsReusedCleared) {
  const WorkloadTrace trace = steps({3.0, 2.0});
  ClosedLoopCore core(trace);
  add_users(core, core.retarget(0.0));
  core.issue(1, 5.0);
  ASSERT_EQ(core.retarget(1.0), 0u);
  ASSERT_TRUE(core.maybe_retire(1));
  EXPECT_EQ(core.active_users(), 2u);
  EXPECT_EQ(core.add_user(), 1u);
  EXPECT_EQ(core.slot(1).issued_at, 0.0);
  EXPECT_EQ(core.add_user(), 3u);
  EXPECT_EQ(core.active_users(), 4u);
}

TEST(ClosedLoopCore, RetiringCancelsThePendingEvent) {
  Simulation sim;
  const WorkloadTrace trace = steps({1.0, 0.0});
  ClosedLoopCore core(trace);
  add_users(core, core.retarget(0.0));
  bool fired = false;
  core.slot(0).pending = sim.schedule_at(5.0, [&] { fired = true; });
  ASSERT_EQ(core.retarget(1.0), 0u);
  ASSERT_TRUE(core.maybe_retire(0));
  sim.run_until(10.0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(core.active_users(), 0u);
}

TEST(ClosedLoopCore, CancelPendingCancelsEveryUsersEvent) {
  Simulation sim;
  const WorkloadTrace trace = steps({2.0, 1.0});
  ClosedLoopCore core(trace);
  add_users(core, core.retarget(0.0));
  int fired = 0;
  core.slot(0).pending = sim.schedule_at(1.0, [&] { ++fired; });
  core.slot(1).pending = sim.schedule_at(2.0, [&] { ++fired; });
  // A freed slot keeps its stale handle; cancelling it is harmless.
  ASSERT_EQ(core.retarget(1.0), 0u);
  ASSERT_TRUE(core.maybe_retire(1));
  core.cancel_pending();
  sim.run_until(10.0);
  EXPECT_EQ(fired, 0);
}

TEST(ClosedLoopCore, RepliesCountAndFireHooks) {
  const WorkloadTrace trace = steps({2.0, 2.0});
  ClosedLoopCore core(trace);
  add_users(core, core.retarget(0.0));
  std::vector<double> rts;
  int rejections = 0;
  core.set_completion_hook([&](double rt) { rts.push_back(rt); });
  core.set_rejection_hook([&] { ++rejections; });

  core.issue(0, 1.0);
  core.issue(1, 2.0);
  EXPECT_TRUE(core.reply(0, RequestOutcome::kServed, 1.25));
  EXPECT_FALSE(core.reply(1, RequestOutcome::kRejected, 2.0));

  const ClientStats& stats = core.stats();
  EXPECT_EQ(stats.issued, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.response_times.total(), 1u);
  ASSERT_EQ(rts.size(), 1u);
  EXPECT_DOUBLE_EQ(rts[0], 0.25);
  EXPECT_EQ(rejections, 1);
}

TEST(ClosedLoopCore, SharesPartitionTheTraceExactly) {
  const WorkloadTrace trace = steps({1001.0, 1001.0});
  std::size_t total = 0;
  for (std::size_t share = 0; share < 7; ++share) {
    ClosedLoopCore core(trace, share, 7);
    const std::size_t part = core.retarget(0.0);
    EXPECT_GE(part, 1001u / 7);
    EXPECT_LE(part, 1001u / 7 + 1);
    total += part;
  }
  EXPECT_EQ(total, 1001u);
}

TEST(ClientStats, MergeAddsCountsAndSamples) {
  ClientStats a;
  a.issued = 3;
  a.completed = 2;
  a.rejected = 1;
  a.response_times.add(0.1);
  a.response_times.add(0.3);
  ClientStats b;
  b.issued = 1;
  b.completed = 1;
  b.response_times.add(0.2);
  ClientStats merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.issued, 4u);
  EXPECT_EQ(merged.completed, 3u);
  EXPECT_EQ(merged.rejected, 1u);
  EXPECT_EQ(merged.response_times.total(), 3u);
  EXPECT_DOUBLE_EQ(merged.response_times.max_recorded(), 0.3);
}

}  // namespace
}  // namespace conscale
