// Run-to-run bit-determinism of planning: repeated SPST runs must produce
// byte-identical class plans and compiled plans, and the runtime results
// (engine forward/backward) built from them must be byte-identical too.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/compiled_plan.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "partition/multilevel.h"
#include "planner/cost_model.h"
#include "planner/spst.h"
#include "runtime/allgather_engine.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct Workload {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;
  CommClasses classes;

  static Workload Make(uint32_t gpus, uint32_t vertices, uint64_t seed) {
    Workload w;
    Rng rng(seed);
    w.graph = GenerateErdosRenyi(vertices, vertices * 3, rng);
    w.topo = BuildPaperTopology(gpus);
    MultilevelPartitioner metis;
    w.relation = *BuildCommRelation(w.graph, *metis.Partition(w.graph, gpus));
    w.classes = BuildCommClasses(w.relation);
    return w;
  }
};

// Flattens a class plan into bytes; any difference — ordering, stages,
// links, chunk ranges, even the accounted cost's bit pattern — shows up.
std::string ClassPlanBytes(const ClassPlan& plan) {
  std::string out;
  auto put = [&out](const void* p, size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  put(&plan.num_devices, sizeof(plan.num_devices));
  put(&plan.planned_cost_seconds, sizeof(plan.planned_cost_seconds));
  for (const ClassTree& tree : plan.trees) {
    put(&tree.class_id, sizeof(tree.class_id));
    put(&tree.first, sizeof(tree.first));
    put(&tree.count, sizeof(tree.count));
    for (const TreeEdge& e : tree.edges) {
      put(&e.link, sizeof(e.link));
      put(&e.stage, sizeof(e.stage));
    }
  }
  return out;
}

std::string CompiledPlanBytes(const CompiledPlan& plan) {
  std::string out;
  auto put = [&out](const void* p, size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  put(&plan.num_devices, sizeof(plan.num_devices));
  put(&plan.num_stages, sizeof(plan.num_stages));
  for (const TransferOp& op : plan.ops) {
    put(&op.link, sizeof(op.link));
    put(&op.src, sizeof(op.src));
    put(&op.dst, sizeof(op.dst));
    put(&op.stage, sizeof(op.stage));
    put(&op.substage, sizeof(op.substage));
    put(op.vertices.data(), op.vertices.size() * sizeof(VertexId));
  }
  for (const auto& idx : plan.ops_by_src) {
    put(idx.data(), idx.size() * sizeof(uint32_t));
  }
  for (const auto& idx : plan.ops_by_dst) {
    put(idx.data(), idx.size() * sizeof(uint32_t));
  }
  return out;
}

Result<ClassPlan> Plan(const Workload& w, double bytes) {
  SpstOptions opts;
  // Small chunks => many work items, so every run commits thousands of
  // trees against an evolving cost model.
  opts.max_class_units = 4;
  opts.min_chunks = 0;
  SpstPlanner planner(opts);
  return planner.PlanClasses(w.classes, w.topo, bytes);
}

TEST(PlanDeterminismTest, ByteIdenticalAcrossRuns) {
  for (uint32_t gpus : {4u, 8u}) {
    Workload w = Workload::Make(gpus, 160, /*seed=*/77);
    const double bytes = 256.0;
    auto reference = Plan(w, bytes);
    ASSERT_TRUE(reference.ok());
    const std::string ref_class_bytes = ClassPlanBytes(*reference);
    const std::string ref_compiled_bytes =
        CompiledPlanBytes(CompilePlan(*reference, w.classes, w.topo));
    ASSERT_FALSE(ref_class_bytes.empty());
    for (int run = 0; run < 3; ++run) {
      auto plan = Plan(w, bytes);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(ClassPlanBytes(*plan), ref_class_bytes) << "plan diverged at run=" << run;
      EXPECT_EQ(CompiledPlanBytes(CompilePlan(*plan, w.classes, w.topo)), ref_compiled_bytes);
    }
  }
}

TEST(PlanDeterminismTest, EngineResultsIdenticalAcrossRuns) {
  Workload w = Workload::Make(8, 140, /*seed=*/80);
  const double bytes = 128.0;
  const uint32_t dim = 3;

  std::vector<EmbeddingMatrix> local;
  for (uint32_t d = 0; d < w.relation.num_devices; ++d) {
    const auto& locals = w.relation.local_vertices[d];
    EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), dim);
    for (uint32_t i = 0; i < locals.size(); ++i) {
      for (uint32_t c = 0; c < dim; ++c) {
        m.Row(i)[c] = 0.25f * static_cast<float>(locals[i]) + static_cast<float>(c);
      }
    }
    local.push_back(std::move(m));
  }

  std::vector<std::vector<EmbeddingMatrix>> forwards;
  std::vector<std::vector<EmbeddingMatrix>> backwards;
  for (int run = 0; run < 3; ++run) {
    auto plan = Plan(w, bytes);
    ASSERT_TRUE(plan.ok());
    CompiledPlan compiled = CompilePlan(*plan, w.classes, w.topo);
    AssignBackwardSubstages(compiled);
    auto engine = AllgatherEngine::Create(w.relation, compiled, w.topo);
    ASSERT_TRUE(engine.ok());
    auto slots = engine->Forward(local);
    ASSERT_TRUE(slots.ok());
    // Gradient = the slot values themselves: deterministic, non-trivial.
    auto grads = engine->Backward(*slots);
    ASSERT_TRUE(grads.ok());
    forwards.push_back(std::move(*slots));
    backwards.push_back(std::move(*grads));
  }
  for (size_t v = 1; v < forwards.size(); ++v) {
    ASSERT_EQ(forwards[v].size(), forwards[0].size());
    for (size_t d = 0; d < forwards[0].size(); ++d) {
      ASSERT_EQ(forwards[v][d].rows, forwards[0][d].rows);
      ASSERT_EQ(forwards[v][d].dim, forwards[0][d].dim);
      EXPECT_EQ(forwards[v][d].data, forwards[0][d].data);
      ASSERT_EQ(backwards[v][d].rows, backwards[0][d].rows);
      EXPECT_EQ(backwards[v][d].data, backwards[0][d].data);
    }
  }
}

}  // namespace
}  // namespace dgcl
