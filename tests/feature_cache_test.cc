// The §3 option-(1) strategy: caching remote layer-0 features skips the
// feature-width allgather and nothing else.

#include <gtest/gtest.h>

#include "sim/epoch_sim.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

Dataset SmallDataset(uint32_t feature_dim) {
  Rng rng(88);
  Dataset ds;
  ds.name = "cache-test";
  ds.graph = GenerateRmat({.scale = 10, .num_edges = 6000}, rng);
  ds.feature_dim = feature_dim;
  ds.hidden_dim = 32;
  return ds;
}

EpochOptions FastOptions() {
  EpochOptions opts;
  opts.net.per_op_latency_s = 0.0;
  opts.compute.layer_overhead_s = 0.0;
  return opts;
}

TEST(FeatureCacheTest, NameIsStable) {
  EXPECT_STREQ(MethodName(Method::kDgclCache), "DGCL+cache");
}

TEST(FeatureCacheTest, SavesExactlyTheFeaturePass) {
  Dataset ds = SmallDataset(128);
  Topology topo = BuildPaperTopology(8);
  auto sim = EpochSimulator::Create(ds, topo, FastOptions());
  ASSERT_TRUE(sim.ok());
  auto plain = sim->Simulate(Method::kDgcl);
  auto cached = sim->Simulate(Method::kDgclCache);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(cached.ok());
  EXPECT_LT(cached->comm_ms, plain->comm_ms);
  // The saving equals the simulated feature-dim allgather.
  EXPECT_NEAR(plain->comm_ms - cached->comm_ms, plain->simulated_allgather_ms, 1e-6);
  // Compute and memory are untouched.
  EXPECT_DOUBLE_EQ(cached->compute_ms, plain->compute_ms);
  EXPECT_FALSE(cached->oom);
}

TEST(FeatureCacheTest, SavingGrowsWithFeatureWidth) {
  Topology topo = BuildPaperTopology(8);
  double previous_saving = 0.0;
  for (uint32_t feature_dim : {32u, 128u, 512u}) {
    Dataset ds = SmallDataset(feature_dim);
    auto sim = EpochSimulator::Create(ds, topo, FastOptions());
    ASSERT_TRUE(sim.ok());
    auto plain = sim->Simulate(Method::kDgcl);
    auto cached = sim->Simulate(Method::kDgclCache);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(cached.ok());
    const double saving = plain->comm_ms - cached->comm_ms;
    EXPECT_GT(saving, previous_saving);
    previous_saving = saving;
  }
}

TEST(FeatureCacheTest, SingleLayerGnnNeedsNoCommunicationWithCache) {
  Dataset ds = SmallDataset(64);
  Topology topo = BuildPaperTopology(4);
  EpochOptions opts = FastOptions();
  opts.num_layers = 1;
  auto sim = EpochSimulator::Create(ds, topo, opts);
  ASSERT_TRUE(sim.ok());
  auto cached = sim->Simulate(Method::kDgclCache);
  ASSERT_TRUE(cached.ok());
  EXPECT_DOUBLE_EQ(cached->comm_ms, 0.0);
}

TEST(FeatureCacheTest, ReportsReducedVolume) {
  Dataset ds = SmallDataset(256);
  Topology topo = BuildPaperTopology(8);
  auto sim = EpochSimulator::Create(ds, topo, FastOptions());
  ASSERT_TRUE(sim.ok());
  auto plain = sim->Simulate(Method::kDgcl);
  auto cached = sim->Simulate(Method::kDgclCache);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(cached.ok());
  EXPECT_LT(cached->avg_comm_bytes_per_gpu, plain->avg_comm_bytes_per_gpu);
}

}  // namespace
}  // namespace dgcl
