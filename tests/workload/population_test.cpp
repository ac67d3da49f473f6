#include "workload/population.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "simcore/lanes/actor.h"
#include "simcore/simulation.h"
#include "workload/client.h"
#include "workload/session.h"
#include "workload/session_population.h"

namespace conscale {
namespace {

// Users at t = 0, 1, 2, 3 (read at the sample instants, no interpolation).
WorkloadTrace steps(std::vector<double> users) {
  return WorkloadTrace("steps", 1.0, std::move(users));
}

void add_users(ClosedLoopCore& core, std::size_t n) {
  for (; n > 0; --n) core.add_user();
}

/// The wake handler of the tests that arm no wake-up.
void no_wake(std::uint32_t) {}

TEST(ClosedLoopCore, RetargetMarksExcessThenCancelsRetirementsFirst) {
  const WorkloadTrace trace = steps({10.0, 4.0, 7.0, 12.0});
  Simulation sim;
  ClosedLoopCore core(sim, 0, no_wake, trace);
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
  Simulation sim;
  ClosedLoopCore core(sim, 0, no_wake, trace);
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

TEST(ClosedLoopCore, RepliesCountAndFireHooks) {
  const WorkloadTrace trace = steps({2.0, 2.0});
  Simulation sim;
  ClosedLoopCore core(sim, 0, no_wake, trace);
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
  Simulation sim;
  std::size_t total = 0;
  for (std::size_t share = 0; share < 7; ++share) {
    ClosedLoopCore core(sim, 0, no_wake, trace, share, 7);
    const std::size_t part = core.retarget(0.0);
    EXPECT_GE(part, 1001u / 7);
    EXPECT_LE(part, 1001u / 7 + 1);
    total += part;
  }
  EXPECT_EQ(total, 1001u);
}

// ---- the wake-up heap ------------------------------------------------------

/// A seeded script of user wake-ups interleaved with other events on one
/// Simulation. Every step draws from one Rng inside an event, so two runs
/// log the same sequence exactly when they execute the same events in the
/// same order. Delays sit on a 0.25 s grid, so equal times are common.
class WakeScript {
 public:
  static constexpr std::uint32_t kUsers = 24;
  /// Arms a user's wake-up `delay` seconds from now.
  using ArmFn = std::function<void(std::uint32_t slot, double delay)>;
  /// Schedules `fn` `delay` seconds from now as other event kind `kind`.
  using OtherFn =
      std::function<void(std::size_t kind, double delay, EventCallback fn)>;

  WakeScript(std::uint64_t seed, std::size_t other_kinds, ArmFn arm,
             OtherFn other)
      : rng_(seed), other_kinds_(other_kinds), arm_(std::move(arm)),
        other_(std::move(other)), armed_(kUsers, false) {}

  void start() {
    for (int i = 0; i < 8; ++i) step();
  }
  void wake(std::uint32_t slot) {
    ASSERT_TRUE(armed_[slot]) << "slot " << slot << " woke unarmed";
    armed_[slot] = false;
    log_.push_back(static_cast<int>(slot));
    step();
  }
  /// Wake-ups as slot numbers, other events as -1 - their index.
  const std::vector<int>& log() const { return log_; }

 private:
  double delay() { return 0.25 * static_cast<double>(rng_.uniform_index(4)); }

  void step() {
    if (steps_left_ == 0) return;
    --steps_left_;
    for (std::size_t n = 1 + rng_.uniform_index(3); n > 0; --n) {
      const auto slot = static_cast<std::uint32_t>(rng_.uniform_index(kUsers));
      if (armed_[slot]) continue;
      armed_[slot] = true;
      arm_(slot, delay());
    }
    if (rng_.bernoulli(0.6)) {
      const int id = next_other_++;
      const std::size_t kind = rng_.uniform_index(other_kinds_);
      other_(kind, delay(), [this, id] {
        log_.push_back(-1 - id);
        step();
      });
    }
  }

  Rng rng_;
  std::size_t other_kinds_;
  ArmFn arm_;
  OtherFn other_;
  std::vector<bool> armed_;
  std::vector<int> log_;
  int steps_left_ = 3000;
  int next_other_ = 0;
};

struct ScriptRun {
  std::vector<int> log;
  std::uint64_t events_executed = 0;
};

/// Exposes the keyed scheduling calls a population makes.
class ScriptActor final : public lanes::LaneActor {
 public:
  using LaneActor::LaneActor;
  using LaneActor::reserve_seq;
  using LaneActor::schedule_after;
};

/// Plain wake-ups among plain events, one kernel event per wake-up
/// (`through_core` false) or through a ClosedLoopCore.
ScriptRun run_plain(std::uint64_t seed, bool through_core) {
  Simulation sim;
  const WorkloadTrace trace = steps({0.0, 0.0});
  std::unique_ptr<WakeScript> script;
  ClosedLoopCore core(
      sim, 0, [&script](std::uint32_t slot) { script->wake(slot); }, trace);
  WakeScript::ArmFn arm = [&](std::uint32_t slot, double delay) {
    if (through_core) {
      core.wake_after(slot, delay, sim.reserve_sequence());
    } else {
      sim.schedule_after(delay, [&script, slot] { script->wake(slot); });
    }
  };
  script = std::make_unique<WakeScript>(
      seed, 1, std::move(arm), [&sim](std::size_t, double delay,
                                      EventCallback fn) {
        sim.schedule_after(delay, std::move(fn));
      });
  script->start();
  sim.run_all();
  return {script->log(), sim.events_executed()};
}

/// Keyed wake-ups on a lane actor's stream, among plain events and keyed
/// events of that stream and of a lower and a higher one.
ScriptRun run_keyed(std::uint64_t seed, bool through_core) {
  lanes::LaneEngine engine(lanes::LaneEngine::Options{});
  ScriptActor lower(engine, 0);
  ScriptActor users(engine, 0);
  ScriptActor higher(engine, 0);
  Simulation& sim = engine.lane(0).sim();
  const WorkloadTrace trace = steps({0.0, 0.0});
  std::unique_ptr<WakeScript> script;
  ClosedLoopCore core(
      sim, users.stream(),
      [&script](std::uint32_t slot) { script->wake(slot); }, trace);
  WakeScript::ArmFn arm = [&](std::uint32_t slot, double delay) {
    if (through_core) {
      core.wake_after(slot, delay, users.reserve_seq());
    } else {
      users.schedule_after(delay, [&script, slot] { script->wake(slot); });
    }
  };
  WakeScript::OtherFn other = [&](std::size_t kind, double delay,
                                  EventCallback fn) {
    switch (kind) {
      case 0: sim.schedule_after(delay, std::move(fn)); break;
      case 1: lower.schedule_after(delay, std::move(fn)); break;
      case 2: users.schedule_after(delay, std::move(fn)); break;
      default: higher.schedule_after(delay, std::move(fn)); break;
    }
  };
  script = std::make_unique<WakeScript>(seed, 4, std::move(arm),
                                        std::move(other));
  script->start();
  sim.run_all();
  return {script->log(), sim.events_executed()};
}

class WakeHeapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WakeHeapProperty, PlainWakeUpsRunWhereOneEventEachWould) {
  const ScriptRun reference = run_plain(GetParam(), false);
  const ScriptRun heap = run_plain(GetParam(), true);
  ASSERT_GT(reference.log.size(), 3000u);
  EXPECT_EQ(heap.log, reference.log);
  EXPECT_EQ(heap.events_executed, reference.events_executed);
}

TEST_P(WakeHeapProperty, KeyedWakeUpsRunWhereOneEventEachWould) {
  const ScriptRun reference = run_keyed(GetParam(), false);
  const ScriptRun heap = run_keyed(GetParam(), true);
  ASSERT_GT(reference.log.size(), 3000u);
  EXPECT_EQ(heap.log, reference.log);
  EXPECT_EQ(heap.events_executed, reference.events_executed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WakeHeapProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(ClosedLoopCore, DestroyedPopulationsLeaveNoEventBehind) {
  Simulation sim;
  const WorkloadTrace trace = steps({50.0, 50.0, 50.0});
  RequestClass only;
  only.name = "only";
  only.weight = 1.0;
  only.tiers.resize(1);
  const RequestMix mix({only});
  SessionModel::State state;
  state.name = "only";
  state.class_index = 0;
  state.think_mean = 1.0;
  state.transitions = {0.5};
  state.exit_weight = 0.5;  // sessions end, so gaps are armed too
  const SessionModel model({state}, {1.0});
  // Replies at once, so every user is waiting on a wake-up.
  const SubmitFn instant = [](const RequestContext&,
                              std::function<void(RequestOutcome)> done) {
    done(RequestOutcome::kServed);
  };
  {
    ClientPopulation clients(sim, trace, mix, instant, {});
    SessionPopulation sessions(sim, trace, mix, model, instant, {});
    sim.run_until(1.5);
    EXPECT_EQ(clients.active_users(), 50u);
    EXPECT_EQ(sessions.active_users(), 50u);
    EXPECT_GT(clients.stats().issued, 0u);
    EXPECT_GT(sessions.stats().issued, 0u);
    // Per population, one tracking event and one wake-up event, whatever
    // the number of users.
    EXPECT_EQ(sim.pending_events(), 4u);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  const std::uint64_t executed = sim.events_executed();
  sim.run_until(10.0);
  EXPECT_EQ(sim.events_executed(), executed);
}

TEST(ClosedLoopCore, RetiredUserNeverWakes) {
  // Eight users cycle wake-up -> request -> reply 0.25 s later -> wake-up
  // 0.5 s later, and may retire at either activity. The trace drops to
  // three at t = 3; the five who retire must never be woken again.
  Simulation sim;
  const WorkloadTrace trace = steps({8.0, 8.0, 8.0, 3.0, 3.0});
  std::vector<double> last_wake(8, -1.0);
  std::vector<double> retired_at(8, -1.0);
  std::unique_ptr<ClosedLoopCore> core;
  const auto retire = [&](std::uint32_t slot) {
    if (!core->maybe_retire(slot)) return false;
    retired_at[slot] = sim.now();
    return true;
  };
  const auto reply = [&](std::uint32_t slot) {
    if (retire(slot)) return;
    core->wake_after(slot, 0.5, sim.reserve_sequence());
  };
  core = std::make_unique<ClosedLoopCore>(
      sim, 0,
      [&](std::uint32_t slot) {
        EXPECT_LT(retired_at[slot], 0.0) << "retired slot " << slot << " woke";
        last_wake[slot] = sim.now();
        if (retire(slot)) return;
        sim.schedule_after(0.25, [&reply, slot] { reply(slot); });
      },
      trace);
  for (std::size_t n = core->retarget(0.0); n > 0; --n) {
    const std::uint32_t slot = core->add_user();
    core->wake_after(slot, 0.1 * slot, sim.reserve_sequence());
  }
  sim.schedule_at(3.0, [&] { EXPECT_EQ(core->retarget(sim.now()), 0u); });
  sim.run_until(10.0);

  EXPECT_EQ(core->active_users(), 3u);
  std::size_t retired = 0;
  for (std::uint32_t slot = 0; slot < 8; ++slot) {
    if (retired_at[slot] < 0.0) {
      EXPECT_GT(last_wake[slot], 9.0) << "slot " << slot;
      continue;
    }
    ++retired;
    EXPECT_GE(retired_at[slot], 3.0);
    EXPECT_LE(last_wake[slot], retired_at[slot]);
  }
  EXPECT_EQ(retired, 5u);
  // The three survivors share one armed kernel event; the reply events of
  // those waiting on a request are the rest.
  EXPECT_LE(sim.pending_events(), 4u);
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
