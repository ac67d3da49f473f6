#include "conscale/policy.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace conscale {
namespace {

using testing::Harness;

SoftAdaptTargets standard_targets() {
  SoftAdaptTargets t;
  t.thread_adapt_tiers = {kAppTier};
  t.conn_adapt = {{kAppTier, kDbTier}};
  return t;
}

TEST(ApplyOptima, SetsThreadsFromOwnTierOptimum) {
  Harness h;
  h.sim.run_until(0.1);
  SoftwareAgent agent(h.sim, h.system);
  apply_optima(h.system, agent, standard_targets(),
               [](std::size_t tier) -> std::optional<int> {
                 return tier == kAppTier ? std::optional<int>(24)
                                         : std::nullopt;
               });
  h.sim.run_until(0.3);
  EXPECT_EQ(h.system.tier(kAppTier).thread_pool_size(), 24u);
  // No DB optimum -> connection pool untouched.
  EXPECT_EQ(h.system.tier(kAppTier).downstream_pool_size(),
            h.scenario.app_dbconn);
}

TEST(ApplyOptima, ConnPoolScalesWithReplicaRatio) {
  Harness h;
  h.sim.run_until(0.1);
  // 2 Tomcats, 1 MySQL.
  h.system.tier(kAppTier).scale_out();
  h.sim.run_until(10.0);
  ASSERT_EQ(h.system.tier(kAppTier).running_vms(), 2u);
  SoftwareAgent agent(h.sim, h.system);
  apply_optima(h.system, agent, standard_targets(),
               [](std::size_t tier) -> std::optional<int> {
                 return tier == kDbTier ? std::optional<int>(20)
                                        : std::nullopt;
               });
  h.sim.run_until(10.3);
  // Total into MySQL = 20 × 1 replica; per Tomcat = 20/2 = 10.
  EXPECT_EQ(h.system.tier(kAppTier).downstream_pool_size(), 10u);
}

TEST(ApplyOptima, FloorsAtOne) {
  Harness h;
  h.sim.run_until(0.1);
  SoftwareAgent agent(h.sim, h.system);
  apply_optima(h.system, agent, standard_targets(),
               [](std::size_t) -> std::optional<int> { return 0; });
  h.sim.run_until(0.3);
  EXPECT_EQ(h.system.tier(kAppTier).thread_pool_size(), 1u);
  EXPECT_EQ(h.system.tier(kAppTier).downstream_pool_size(), 1u);
}

TEST(Ec2Policy, AdaptIsNoOp) {
  Ec2AutoScalingPolicy policy;
  EXPECT_EQ(policy.name(), "EC2-AutoScaling");
  policy.adapt(1.0);  // must not crash; nothing to assert — it does nothing
}

TEST(DcmPolicy, AppliesTrainedProfile) {
  Harness h;
  h.sim.run_until(0.1);
  SoftwareAgent agent(h.sim, h.system);
  DcmProfile profile;
  profile.tier_optimal_concurrency[kAppTier] = 20;
  profile.tier_optimal_concurrency[kDbTier] = 40;
  DcmPolicy policy(h.system, agent, standard_targets(), profile);
  EXPECT_EQ(policy.name(), "DCM");
  policy.adapt(h.sim.now());
  h.sim.run_until(0.3);
  EXPECT_EQ(h.system.tier(kAppTier).thread_pool_size(), 20u);
  EXPECT_EQ(h.system.tier(kAppTier).downstream_pool_size(), 40u);
}

TEST(DcmPolicy, ProfileIsConditionBlind) {
  // DCM applies the same trained value regardless of runtime changes —
  // the staleness the paper exploits in Fig 11.
  Harness h;
  h.sim.run_until(0.1);
  SoftwareAgent agent(h.sim, h.system);
  DcmProfile profile;
  profile.tier_optimal_concurrency[kAppTier] = 20;
  DcmPolicy policy(h.system, agent, standard_targets(), profile);
  policy.adapt(h.sim.now());
  h.sim.run_until(0.3);
  const std::size_t first = h.system.tier(kAppTier).thread_pool_size();
  // "Change" the environment; DCM recommends the same thing.
  h.mix.apply_dataset_scale(0.5);
  policy.adapt(h.sim.now());
  h.sim.run_until(0.6);
  EXPECT_EQ(h.system.tier(kAppTier).thread_pool_size(), first);
}

TEST(DcmPolicy, EmptyProfileChangesNothing) {
  Harness h;
  h.sim.run_until(0.1);
  SoftwareAgent agent(h.sim, h.system);
  DcmPolicy policy(h.system, agent, standard_targets(), DcmProfile{});
  policy.adapt(h.sim.now());
  h.sim.run_until(0.3);
  EXPECT_EQ(h.system.tier(kAppTier).thread_pool_size(), h.scenario.app_threads);
  EXPECT_TRUE(agent.events().empty());
}

TEST(ConScalePolicy, UsesEstimatorRecommendationWithHeadroom) {
  Harness h;
  h.sim.run_until(0.1);
  SoftwareAgent agent(h.sim, h.system);
  EstimatorServiceParams params;
  params.window = 1e9;
  ConcurrencyEstimatorService service(h.sim, h.system, *h.warehouse, params);
  // Seed the warehouse with a three-stage curve for the app tier.
  Rng rng(31);
  SimTime t = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    for (int q = 1; q <= 60; ++q) {
      IntervalSample s;
      s.t_end = (t += 0.05);
      s.concurrency = q;
      const double tp = q <= 20 ? 1000.0 * q / 20.0
                       : q <= 35 ? 1000.0
                                 : 1000.0 - 25.0 * (q - 35);
      s.throughput = rng.normal(tp, 20.0);
      s.completions = 5;
      h.warehouse->record_server("Tomcat1", s);
    }
  }
  h.sim.run_for(100.0);
  SoftAdaptTargets targets;
  targets.thread_adapt_tiers = {kAppTier};
  ConScalePolicy policy(h.system, agent, targets, service, 1.2);
  EXPECT_EQ(policy.name(), "ConScale");
  policy.adapt(h.sim.now());
  h.sim.run_for(0.3);
  const std::size_t applied = h.system.tier(kAppTier).thread_pool_size();
  // q_lower ~20, headroom 1.2 -> ~24, clamped by q_upper ~35.
  EXPECT_GE(applied, 20u);
  EXPECT_LE(applied, 30u);
}

TEST(ConScalePolicy, NoEstimateLeavesAllocationAlone) {
  Harness h;
  h.sim.run_until(0.1);
  SoftwareAgent agent(h.sim, h.system);
  EstimatorServiceParams params;
  ConcurrencyEstimatorService service(h.sim, h.system, *h.warehouse, params);
  ConScalePolicy policy(h.system, agent, standard_targets(), service, 1.4);
  policy.adapt(h.sim.now());
  h.sim.run_for(0.3);
  EXPECT_EQ(h.system.tier(kAppTier).thread_pool_size(), h.scenario.app_threads);
  EXPECT_EQ(h.system.tier(kAppTier).downstream_pool_size(),
            h.scenario.app_dbconn);
}

}  // namespace
}  // namespace conscale
