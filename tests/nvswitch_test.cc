// NVSwitch (DGX-2-style) topology extension: a full-bandwidth crossbar makes
// relaying pointless, so SPST should converge to (near-)direct plans and the
// P2P gap should shrink dramatically — a useful negative control for the
// planner.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "planner/baselines.h"
#include "planner/cost_model.h"
#include "planner/spst.h"
#include "runtime/allgather_engine.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

Topology NvSwitchMachine(uint32_t gpus) {
  MachineConfig config;
  config.num_gpus = gpus;
  config.nvswitch = true;
  return BuildSingleMachine(config);
}

TEST(NvSwitchTest, SupportsSixteenGpusOneMachine) {
  Topology topo = NvSwitchMachine(16);
  EXPECT_EQ(topo.num_devices(), 16u);
  EXPECT_TRUE(topo.IsFullyConnected());
  for (DeviceId d = 0; d < 16; ++d) {
    EXPECT_EQ(topo.device(d).machine, 0u);
  }
}

TEST(NvSwitchTest, EveryPairIsTwoNv2Hops) {
  Topology topo = NvSwitchMachine(8);
  for (DeviceId i = 0; i < 8; ++i) {
    for (DeviceId j = 0; j < 8; ++j) {
      if (i == j) {
        continue;
      }
      LinkId link = topo.LinkBetween(i, j);
      ASSERT_NE(link, kInvalidId);
      ASSERT_EQ(topo.link(link).hops.size(), 2u);
      for (ConnId hop : topo.link(link).hops) {
        EXPECT_EQ(topo.connection(hop).type, LinkType::kNvLink2);
      }
      EXPECT_DOUBLE_EQ(topo.LinkBottleneckGBps(link), 48.35);
    }
  }
}

TEST(NvSwitchTest, EndpointPortsAreTheOnlyContention) {
  // Two flows into the same GPU share its down-port; two flows into
  // different GPUs do not contend at all.
  Topology topo = NvSwitchMachine(8);
  CostModel shared(topo, 1, 1.0);
  shared.AddTransfer(topo.LinkBetween(0, 5), 0, 1'000'000'000);
  shared.AddTransfer(topo.LinkBetween(2, 5), 0, 1'000'000'000);
  EXPECT_NEAR(shared.TotalSeconds(), 2.0 / 48.35, 1e-9);
  CostModel disjoint(topo, 1, 1.0);
  disjoint.AddTransfer(topo.LinkBetween(0, 5), 0, 1'000'000'000);
  disjoint.AddTransfer(topo.LinkBetween(2, 6), 0, 1'000'000'000);
  EXPECT_NEAR(disjoint.TotalSeconds(), 1.0 / 48.35, 1e-9);
}

TEST(NvSwitchTest, SpstGainOverP2PShrinksOnTheCrossbar) {
  Rng rng(7);
  CsrGraph graph = GenerateRmat({.scale = 11, .num_edges = 20000}, rng);
  HashPartitioner hash;
  CommRelation rel = *BuildCommRelation(graph, *hash.Partition(graph, 8));
  const double bytes = 2048.0;

  SpstPlanner spst;
  PeerToPeerPlanner p2p;
  auto ratio_on = [&](const Topology& topo) {
    const double s = EvaluatePlanCost(*spst.Plan(rel, topo, bytes), topo, bytes);
    const double p = EvaluatePlanCost(*p2p.Plan(rel, topo, bytes), topo, bytes);
    return p / s;
  };
  const double dgx1_ratio = ratio_on(BuildPaperTopology(8));
  const double nvswitch_ratio = ratio_on(NvSwitchMachine(8));
  EXPECT_GT(dgx1_ratio, 2.0);       // heterogeneous fabric: planning matters
  EXPECT_LT(nvswitch_ratio, 1.6);   // uniform crossbar: little left to plan
  EXPECT_GE(nvswitch_ratio, 0.99);  // and SPST never loses
}

TEST(NvSwitchTest, PlansExecuteOnTheRuntime) {
  Rng rng(9);
  CsrGraph graph = GenerateErdosRenyi(80, 240, rng);
  Topology topo = NvSwitchMachine(16);
  HashPartitioner hash;
  CommRelation rel = *BuildCommRelation(graph, *hash.Partition(graph, 16));
  SpstPlanner spst;
  CompiledPlan plan = CompilePlan(*spst.Plan(rel, topo, 64), topo);
  AssignBackwardSubstages(plan);
  auto engine = AllgatherEngine::Create(rel, plan, topo);
  ASSERT_TRUE(engine.ok());
  std::vector<EmbeddingMatrix> local;
  for (uint32_t d = 0; d < 16; ++d) {
    const auto& locals = rel.local_vertices[d];
    EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), 2);
    for (uint32_t i = 0; i < locals.size(); ++i) {
      m.Row(i)[0] = static_cast<float>(locals[i]);
    }
    local.push_back(std::move(m));
  }
  auto slots = engine->Forward(local);
  ASSERT_TRUE(slots.ok());
  for (uint32_t d = 0; d < 16; ++d) {
    const auto& locals = rel.local_vertices[d];
    const auto& remotes = rel.remote_vertices[d];
    for (uint32_t i = 0; i < remotes.size(); ++i) {
      ASSERT_EQ((*slots)[d].Row(locals.size() + i)[0], static_cast<float>(remotes[i]));
    }
  }
}

}  // namespace
}  // namespace dgcl
