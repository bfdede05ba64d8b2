// Failure injection: a transiently slow device (§6.1's "transient
// stragglers") must never corrupt delivery.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "partition/multilevel.h"
#include "planner/spst.h"
#include "runtime/allgather_engine.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct Fixture {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;
  CompiledPlan plan;

  static Fixture Make(uint32_t gpus, uint64_t seed) {
    Fixture f;
    Rng rng(seed);
    f.graph = GenerateErdosRenyi(60, 200, rng);
    f.topo = BuildPaperTopology(gpus);
    MultilevelPartitioner metis;
    f.relation = *BuildCommRelation(f.graph, *metis.Partition(f.graph, gpus));
    SpstPlanner spst;
    f.plan = CompilePlan(*spst.Plan(f.relation, f.topo, 64), f.topo);
    AssignBackwardSubstages(f.plan);
    return f;
  }
};

class StragglerSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StragglerSweep, SlowDeviceNeverCorruptsDelivery) {
  Fixture f = Fixture::Make(8, 21);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());

  EngineOptions slow_options;
  slow_options.straggler_device = GetParam();
  slow_options.straggler_micros = 2000;  // 2 ms per stage
  auto slow_engine = AllgatherEngine::Create(f.relation, f.plan, f.topo, slow_options);
  ASSERT_TRUE(slow_engine.ok());

  std::vector<EmbeddingMatrix> local;
  for (uint32_t d = 0; d < 8; ++d) {
    const auto& locals = f.relation.local_vertices[d];
    EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), 3);
    for (uint32_t i = 0; i < locals.size(); ++i) {
      m.Row(i)[0] = static_cast<float>(locals[i] * 2 + 1);
    }
    local.push_back(std::move(m));
  }
  auto clean = engine->Forward(local);
  ASSERT_TRUE(clean.ok());

  auto delayed = slow_engine->Forward(local);
  ASSERT_TRUE(delayed.ok());
  for (uint32_t d = 0; d < 8; ++d) {
    EXPECT_EQ((*clean)[d].data, (*delayed)[d].data) << "device " << d;
  }
  // Backward too.
  std::vector<EmbeddingMatrix> grads;
  for (uint32_t d = 0; d < 8; ++d) {
    EmbeddingMatrix g = EmbeddingMatrix::Zero(engine->NumContractSlots(d), 2);
    for (float& x : g.data) {
      x = 0.5f;
    }
    grads.push_back(std::move(g));
  }
  auto back_delayed = slow_engine->Backward(grads);
  auto back_clean = engine->Backward(grads);
  ASSERT_TRUE(back_delayed.ok());
  ASSERT_TRUE(back_clean.ok());
  for (uint32_t d = 0; d < 8; ++d) {
    EXPECT_EQ((*back_clean)[d].data, (*back_delayed)[d].data) << "device " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, StragglerSweep, ::testing::Values(0u, 3u, 7u),
                         [](const auto& info) { return "dev" + std::to_string(info.param); });

}  // namespace
}  // namespace dgcl
