#include "experiments/scenario.h"

#include <gtest/gtest.h>

namespace conscale {
namespace {

TEST(ScenarioParams, DefaultTopologyIsPaper111) {
  const ScenarioParams p = ScenarioParams::paper_default();
  const topology::ServiceGraphConfig config = p.system_config();
  ASSERT_EQ(config.nodes.size(), 3u);
  EXPECT_EQ(config.nodes[0].tier.name, "Apache");
  EXPECT_EQ(config.nodes[1].tier.name, "Tomcat");
  EXPECT_EQ(config.nodes[2].tier.name, "MySQL");
  for (const auto& node : config.nodes) EXPECT_EQ(node.initial_vms, 1u);
}

TEST(ScenarioParams, ChainIsALinearGraph) {
  // Each tier makes one synchronous call into the next; the last is a leaf.
  const topology::ServiceGraphConfig config =
      ScenarioParams::paper_default().system_config();
  ASSERT_EQ(config.nodes.size(), 3u);
  for (std::size_t i = 0; i + 1 < config.nodes.size(); ++i) {
    ASSERT_EQ(config.nodes[i].route.size(), 1u);
    ASSERT_EQ(config.nodes[i].route[0].calls.size(), 1u);
    EXPECT_EQ(config.nodes[i].route[0].calls[0].node, i + 1);
  }
  EXPECT_TRUE(config.nodes.back().route.empty());
  for (const auto& node : config.nodes) EXPECT_FALSE(node.cache.enabled);
  EXPECT_FALSE(config.admission.enabled);
}

TEST(ScenarioParams, SoftAllocationIs1000_60_40) {
  // The paper's initial soft resources (§V).
  const ScenarioParams p = ScenarioParams::paper_default();
  const topology::ServiceGraphConfig config = p.system_config();
  EXPECT_EQ(config.nodes[0].tier.server_template.thread_pool_size, 1000u);
  EXPECT_EQ(config.nodes[1].tier.server_template.thread_pool_size, 60u);
  EXPECT_EQ(config.nodes[1].tier.server_template.downstream_pool_size, 40u);
}

TEST(ScenarioParams, PrepDelayIsPaper15s) {
  const ScenarioParams p = ScenarioParams::paper_default();
  for (const auto& node : p.system_config().nodes) {
    EXPECT_DOUBLE_EQ(node.tier.vm_prep_delay, 15.0);
  }
}

TEST(ScenarioParams, TierIndicesAssignedInOrder) {
  const topology::ServiceGraphConfig config =
      ScenarioParams::paper_default().system_config();
  // tier_index is (re)assigned by ServiceGraph (node index), but the
  // template carries the scenario's intent; verify the canonical constants
  // line up.
  EXPECT_EQ(kWebTier, 0u);
  EXPECT_EQ(kAppTier, 1u);
  EXPECT_EQ(kDbTier, 2u);
  EXPECT_EQ(config.nodes.size(), 3u);
}

TEST(ScenarioParams, MakeMixRespectsMode) {
  ScenarioParams p = ScenarioParams::paper_default();
  p.mode = WorkloadMode::kBrowseOnly;
  const RequestMix browse = p.make_mix();
  for (const auto& c : browse.classes()) EXPECT_FALSE(c.is_write);
  p.mode = WorkloadMode::kReadWriteMix;
  const RequestMix rw = p.make_mix();
  bool any_write = false;
  for (const auto& c : rw.classes()) any_write |= c.is_write;
  EXPECT_TRUE(any_write);
}

TEST(ScenarioParams, WorkScaleAffectsMixAndUsers) {
  ScenarioParams p = ScenarioParams::paper_default();
  p.work_scale = 4.0;
  const RequestMix scaled = p.make_mix();
  const RequestMix native = ScenarioParams::paper_default().make_mix();
  EXPECT_NEAR(scaled.classes()[0].tiers[1].cpu_pre,
              4.0 * native.classes()[0].tiers[1].cpu_pre, 1e-12);
  EXPECT_DOUBLE_EQ(p.scaled_users(8000.0), 2000.0);
}

TEST(ScenarioParams, DatasetScaleFlowsIntoMix) {
  ScenarioParams p = ScenarioParams::paper_default();
  p.mix.dataset_scale = 2.0;
  const RequestMix scaled = p.make_mix();
  const RequestMix native = ScenarioParams::paper_default().make_mix();
  EXPECT_NEAR(scaled.classes()[0].tiers[1].cpu_post,
              2.0 * native.classes()[0].tiers[1].cpu_post, 1e-12);
  // cpu_pre is dataset-independent.
  EXPECT_NEAR(scaled.classes()[0].tiers[1].cpu_pre,
              native.classes()[0].tiers[1].cpu_pre, 1e-12);
}

TEST(ScenarioParams, CoreCountsPropagate) {
  ScenarioParams p = ScenarioParams::paper_default();
  p.db_cores = 2;
  p.app_cores = 4;
  const topology::ServiceGraphConfig config = p.system_config();
  EXPECT_EQ(config.nodes[kAppTier].tier.server_template.cores, 4);
  EXPECT_EQ(config.nodes[kDbTier].tier.server_template.cores, 2);
}

TEST(ScenarioParams, SeedsDifferPerTier) {
  const topology::ServiceGraphConfig config =
      ScenarioParams::paper_default().system_config();
  EXPECT_NE(config.nodes[0].tier.server_template.seed,
            config.nodes[1].tier.server_template.seed);
  EXPECT_NE(config.nodes[1].tier.server_template.seed,
            config.nodes[2].tier.server_template.seed);
}

}  // namespace
}  // namespace conscale
