#include "workload/session.h"
#include "workload/session_population.h"

#include <gtest/gtest.h>

namespace conscale {
namespace {

SessionModel two_state_model() {
  SessionModel::State a;
  a.name = "a";
  a.class_index = 0;
  a.think_mean = 0.1;
  a.transitions = {0.0, 1.0};  // a -> b always
  a.exit_weight = 0.0;
  SessionModel::State b;
  b.name = "b";
  b.class_index = 1;
  b.think_mean = 0.1;
  b.transitions = {0.0, 0.0};
  b.exit_weight = 1.0;  // b always exits
  return SessionModel({a, b}, {1.0, 0.0});
}

TEST(SessionModel, RejectsMalformedChains) {
  SessionModel::State s;
  s.transitions = {0.0};
  s.exit_weight = 0.0;  // absorbing without exit
  EXPECT_THROW(SessionModel({s}, {1.0}), std::invalid_argument);
  SessionModel::State ok = s;
  ok.exit_weight = 1.0;
  EXPECT_THROW(SessionModel({ok}, {}), std::invalid_argument);    // shape
  EXPECT_THROW(SessionModel({ok}, {0.0}), std::invalid_argument);  // zero entry
  EXPECT_THROW(SessionModel({}, {}), std::invalid_argument);
}

TEST(SessionModel, DeterministicChainWalk) {
  const SessionModel model = two_state_model();
  Rng rng(1);
  EXPECT_EQ(model.pick_entry(rng), 0u);
  const auto next = model.next(0, rng);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 1u);
  EXPECT_FALSE(model.next(1, rng).has_value());  // b always exits
}

TEST(SessionModel, ExpectedLengthOfDeterministicChain) {
  // a -> b -> exit: exactly two requests per session.
  EXPECT_NEAR(two_state_model().expected_session_length(), 2.0, 1e-9);
}

TEST(SessionModel, ExpectedLengthOfGeometricChain) {
  // Single state repeating w.p. 3/4: mean length = 4.
  SessionModel::State s;
  s.name = "loop";
  s.transitions = {3.0};
  s.exit_weight = 1.0;
  const SessionModel model({s}, {1.0});
  EXPECT_NEAR(model.expected_session_length(), 4.0, 1e-9);
}

TEST(SessionModel, VisitFractionsSumToOne) {
  const RequestMix mix = make_browse_only_mix(MixParams{});
  const SessionModel model = SessionModel::rubbos_browse(mix);
  const auto fractions = model.visit_fractions();
  double total = 0.0;
  for (double f : fractions) {
    EXPECT_GE(f, 0.0);
    total += f;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Browsing states dominate; search is the rare expensive one.
  EXPECT_LT(fractions[3], 0.2);
  EXPECT_GT(fractions[1], 0.3);  // ViewStory is the hub
}

TEST(SessionModel, RubbosSessionLengthIsModerate) {
  const RequestMix mix = make_browse_only_mix(MixParams{});
  const SessionModel model = SessionModel::rubbos_browse(mix);
  const double length = model.expected_session_length();
  EXPECT_GT(length, 3.0);
  EXPECT_LT(length, 20.0);
}

TEST(SessionModel, EmpiricalVisitsMatchAnalyticalFractions) {
  const RequestMix mix = make_browse_only_mix(MixParams{});
  const SessionModel model = SessionModel::rubbos_browse(mix);
  Rng rng(99);
  std::vector<int> counts(model.states().size(), 0);
  int total = 0;
  for (int session = 0; session < 20000; ++session) {
    std::optional<std::size_t> state = model.pick_entry(rng);
    while (state) {
      ++counts[*state];
      ++total;
      state = model.next(*state, rng);
    }
  }
  const auto fractions = model.visit_fractions();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / total, fractions[i], 0.01)
        << model.states()[i].name;
  }
}

// A system that serves every request after a fixed delay.
SubmitFn respond_after(Simulation& sim, double delay) {
  return [&sim, delay](const RequestContext&,
                       std::function<void(RequestOutcome)> done) {
    sim.schedule_after(delay, [done = std::move(done)] {
      done(RequestOutcome::kServed);
    });
  };
}

TEST(SessionPopulation, DrivesRequestsThroughStates) {
  Simulation sim;
  const RequestMix mix = make_browse_only_mix(MixParams{});
  const SessionModel model = SessionModel::rubbos_browse(mix);
  const WorkloadTrace trace = make_constant_trace(30.0, 60.0);
  SessionPopulation::Params params;
  params.inter_session_gap_mean = 0.5;
  SessionPopulation clients(
      sim, trace, mix, model,
      respond_after(sim, 0.01),
      params);
  sim.run_until(60.0);
  EXPECT_EQ(clients.active_users(), 30u);
  EXPECT_GT(clients.stats().completed, 200u);
  EXPECT_GT(clients.sessions_finished(), 20u);
  EXPECT_GE(clients.sessions_started(), clients.sessions_finished());
  // All four states were exercised.
  EXPECT_EQ(clients.per_state_completions().size(), 4u);
  EXPECT_EQ(clients.stats().response_times.total(), clients.stats().completed);
}

TEST(SessionPopulation, TracksShrinkingTrace) {
  Simulation sim;
  const RequestMix mix = make_browse_only_mix(MixParams{});
  const SessionModel model = SessionModel::rubbos_browse(mix);
  std::vector<double> samples(121, 40.0);
  for (std::size_t i = 60; i < samples.size(); ++i) samples[i] = 5.0;
  const WorkloadTrace trace("step", 1.0, std::move(samples));
  SessionPopulation::Params params;
  params.inter_session_gap_mean = 0.2;
  SessionPopulation clients(
      sim, trace, mix, model,
      respond_after(sim, 0.005),
      params);
  sim.run_until(59.0);
  EXPECT_EQ(clients.active_users(), 40u);
  sim.run_until(120.0);
  EXPECT_LE(clients.active_users(), 8u);
}

TEST(SessionPopulation, ShedRequestsCountAndUsersCarryOn) {
  // A system that sheds every other request at submit time, as admission
  // control does: a shed request is issued and rejected, records no RT
  // sample and no per-state completion, and its user keeps navigating.
  Simulation sim;
  const RequestMix mix = make_browse_only_mix(MixParams{});
  const SessionModel model = SessionModel::rubbos_browse(mix);
  const WorkloadTrace trace = make_constant_trace(20.0, 60.0);
  SessionPopulation::Params params;
  params.inter_session_gap_mean = 0.5;
  std::uint64_t submitted = 0;
  SessionPopulation clients(
      sim, trace, mix, model,
      [&sim, &submitted](const RequestContext&,
                         std::function<void(RequestOutcome)> done) {
        if (++submitted % 2 == 0) {
          done(RequestOutcome::kRejected);
          return;
        }
        sim.schedule_after(0.01, [done = std::move(done)] {
          done(RequestOutcome::kServed);
        });
      },
      params);
  std::uint64_t rejections_seen = 0;
  clients.set_rejection_hook([&] { ++rejections_seen; });
  sim.run_until(60.0);

  EXPECT_GT(clients.stats().rejected, 100u);
  EXPECT_EQ(rejections_seen, clients.stats().rejected);
  EXPECT_EQ(clients.stats().issued, submitted);
  EXPECT_GE(clients.stats().issued,
            clients.stats().completed + clients.stats().rejected);
  EXPECT_LE(clients.stats().issued - clients.stats().completed -
                clients.stats().rejected,
            clients.active_users());
  EXPECT_EQ(clients.stats().response_times.total(), clients.stats().completed);
  std::uint64_t per_state = 0;
  for (const auto& [state, count] : clients.per_state_completions()) {
    per_state += count;
  }
  EXPECT_EQ(per_state, clients.stats().completed);
  EXPECT_GT(clients.sessions_finished(), 10u);
}

TEST(SessionPopulation, DeterministicWithSeed) {
  auto run_once = [] {
    Simulation sim;
    const RequestMix mix = make_browse_only_mix(MixParams{});
    const SessionModel model = SessionModel::rubbos_browse(mix);
    const WorkloadTrace trace = make_constant_trace(15.0, 30.0);
    SessionPopulation::Params params;
    params.seed = 77;
    SessionPopulation clients(
        sim, trace, mix, model,
        respond_after(sim, 0.01),
        params);
    sim.run_until(30.0);
    return clients.stats().completed;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace conscale
