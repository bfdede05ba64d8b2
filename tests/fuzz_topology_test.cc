// Randomized property tests: SPST must produce valid, executable plans on
// *arbitrary* strongly-connected topologies, not just the DGX presets.

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "planner/baselines.h"
#include "planner/cost_model.h"
#include "planner/spst.h"
#include "random_topology.h"
#include "runtime/allgather_engine.h"

namespace dgcl {
namespace {

constexpr uint64_t kSeeds[] = {1001u, 1002u, 1003u, 1004u, 1005u,
                               1006u, 1007u, 1008u, 1009u, 1010u};

struct FuzzWorkload {
  uint32_t devices = 0;
  Topology topo;
  CommRelation rel;
};

// `fully_connected` draws a link for every device pair
// (BuildRandomFullyConnectedTopology) instead of the sweep's random ring
// with shortcuts, so peer-to-peer can plan.
FuzzWorkload MakeWorkload(uint64_t seed, bool fully_connected = false) {
  FuzzWorkload w;
  Rng rng(seed);
  w.devices = 2 + static_cast<uint32_t>(rng.UniformInt(9));
  if (fully_connected) {
    BuildRandomFullyConnectedTopology(w.devices, rng, w.topo);
  } else {
    BuildRandomTopology(w.devices, rng, w.topo);
  }
  CsrGraph graph = GenerateErdosRenyi(40 + static_cast<VertexId>(rng.UniformInt(60)),
                                      200 + rng.UniformInt(200), rng);
  RandomPartitioner partitioner(seed);
  w.rel = *BuildCommRelation(graph, *partitioner.Partition(graph, w.devices));
  return w;
}

class FuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSweep, SpstValidAndExecutable) {
  const FuzzWorkload w = MakeWorkload(GetParam());
  const auto& [devices, topo, rel] = w;

  SpstPlanner spst;
  auto plan = spst.Plan(rel, topo, 512);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(ValidatePlan(*plan, rel, topo).ok());

  CompiledPlan compiled = CompilePlan(*plan, topo);
  AssignBackwardSubstages(compiled);
  ASSERT_TRUE(ValidateCompiledPlan(compiled, rel, topo).ok());

  // Execute it for real.
  auto engine = AllgatherEngine::Create(rel, compiled, topo);
  ASSERT_TRUE(engine.ok());
  std::vector<EmbeddingMatrix> local;
  for (uint32_t d = 0; d < devices; ++d) {
    const auto& locals = rel.local_vertices[d];
    EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), 2);
    for (uint32_t i = 0; i < locals.size(); ++i) {
      m.Row(i)[0] = static_cast<float>(locals[i]);
    }
    local.push_back(std::move(m));
  }
  auto slots = engine->Forward(local);
  ASSERT_TRUE(slots.ok());
  for (uint32_t d = 0; d < devices; ++d) {
    const auto& locals = rel.local_vertices[d];
    const auto& remotes = rel.remote_vertices[d];
    for (uint32_t i = 0; i < remotes.size(); ++i) {
      ASSERT_EQ((*slots)[d].Row(locals.size() + i)[0], static_cast<float>(remotes[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::ValuesIn(kSeeds));

// SPST should never lose to a load-oblivious baseline on its own cost model.
// Peer-to-peer and swap need links that the sweep's random topologies may
// lack, so each seed also draws a fully connected topology; each bound holds
// where that baseline plans, and each baseline must plan on at least one
// seed so the bound cannot pass vacuously.
TEST(FuzzBaselinesTest, SpstNoWorseThanP2PAndSwap) {
  PeerToPeerPlanner p2p;
  SwapPlanner swap;
  std::map<std::string, int> planned_seeds;
  for (uint64_t seed : kSeeds) {
    for (bool fully_connected : {false, true}) {
      SCOPED_TRACE(testing::Message() << seed << (fully_connected ? " fully connected" : ""));
      const FuzzWorkload w = MakeWorkload(seed, fully_connected);
      SpstPlanner spst;
      auto plan = spst.Plan(w.rel, w.topo, 512);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const double spst_cost = EvaluatePlanCost(*plan, w.topo, 512);
      for (Planner* baseline : std::initializer_list<Planner*>{&p2p, &swap}) {
        auto base_plan = baseline->Plan(w.rel, w.topo, 512);
        if (base_plan.ok()) {
          ++planned_seeds[baseline->name()];
          EXPECT_LE(spst_cost, EvaluatePlanCost(*base_plan, w.topo, 512) * 1.02)
              << baseline->name();
        }
      }
    }
  }
  EXPECT_GE(planned_seeds["p2p"], 1);
  EXPECT_GE(planned_seeds["swap"], 1);
}

}  // namespace
}  // namespace dgcl
