// Golden-plan corpus: byte-exact serialized plans for representative
// configurations, pinned in tests/golden/. The planner is deterministic by
// contract (fixed seeds, deterministic tie-breaks, one serial commit order),
// so any byte drift in these files is a semantic
// planner change — intentional changes regenerate the corpus with
//
//   ./golden_plan_test --regenerate
//
// and the new files are reviewed like code. The corpus spans the planning
// feature matrix: per-vertex vs batched SPST, single machine vs hierarchical
// cluster, degraded media, and a post-recovery (survivor-compacted) plan.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "comm/plan_io.h"
#include "dgcl/dgcl.h"
#include "graph/generators.h"
#include "partition/hierarchical.h"
#include "partition/multilevel.h"
#include "planner/spst.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

bool g_regenerate = false;

std::string GoldenPath(const std::string& name) {
  return std::string(DGCL_TEST_GOLDEN_DIR) + "/" + name + ".plan";
}

Result<std::string> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Serializes `plan`, then either pins it as the new golden file
// (--regenerate) or compares it byte-for-byte against the pinned corpus.
void CheckGolden(const std::string& name, const CompiledPlan& plan, const Topology& topo) {
  const std::string golden = GoldenPath(name);
  if (g_regenerate) {
    ASSERT_TRUE(SaveCompiledPlan(plan, topo, golden).ok()) << golden;
    std::cerr << "regenerated " << golden << "\n";
    return;
  }
  const std::string current = "golden_current_" + name + ".plan";
  ASSERT_TRUE(SaveCompiledPlan(plan, topo, current).ok());
  auto want = ReadBytes(golden);
  ASSERT_TRUE(want.ok()) << want.status().ToString()
                         << " — run ./golden_plan_test --regenerate to create the corpus";
  auto got = ReadBytes(current);
  ASSERT_TRUE(got.ok());
  std::remove(current.c_str());
  if (*got != *want) {
    // Size + first differing byte make drift reports actionable without
    // dumping kilobytes of binary into the log.
    size_t diff = 0;
    while (diff < got->size() && diff < want->size() && (*got)[diff] == (*want)[diff]) {
      ++diff;
    }
    FAIL() << name << ": plan drifted from golden corpus (" << got->size() << " vs "
           << want->size() << " bytes, first difference at byte " << diff
           << "). If the planner change is intentional, regenerate with "
              "./golden_plan_test --regenerate and review the new corpus.";
  }
  // The pinned bytes must also still round-trip into a loadable plan.
  auto loaded = LoadCompiledPlan(topo, golden);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ops.size(), plan.ops.size());
  EXPECT_EQ(loaded->num_stages, plan.num_stages);
}

CsrGraph CorpusGraph(uint64_t seed) {
  Rng rng(seed);
  return GenerateErdosRenyi(90, 360, rng);
}

CompiledPlan PlanFor(const CsrGraph& graph, const Partitioning& partitioning,
                     const Topology& topo, const SpstOptions& spst_options) {
  CommRelation relation = *BuildCommRelation(graph, partitioning);
  SpstPlanner planner(spst_options);
  CompiledPlan plan = CompilePlan(*planner.Plan(relation, topo, 64), topo);
  AssignBackwardSubstages(plan);
  return plan;
}

TEST(GoldenPlanTest, PerVertex8Gpu) {
  CsrGraph graph = CorpusGraph(71);
  Topology topo = BuildPaperTopology(8);
  MultilevelPartitioner metis;
  SpstOptions spst;
  spst.max_class_units = 0;  // per-vertex planning (the ablation limit)
  CheckGolden("pervertex_8gpu", PlanFor(graph, *metis.Partition(graph, 8), topo, spst), topo);
}

TEST(GoldenPlanTest, Batched8Gpu) {
  CsrGraph graph = CorpusGraph(71);
  Topology topo = BuildPaperTopology(8);
  MultilevelPartitioner metis;
  CheckGolden("batched_8gpu", PlanFor(graph, *metis.Partition(graph, 8), topo, SpstOptions{}),
              topo);
}

TEST(GoldenPlanTest, HierarchicalCluster16Gpu) {
  CsrGraph graph = CorpusGraph(73);
  Topology topo = BuildPaperTopology(16);  // two machines, NIC-connected
  MultilevelPartitioner metis;
  auto partitioning = PartitionForTopology(graph, topo, metis);
  ASSERT_TRUE(partitioning.ok());
  CheckGolden("cluster_16gpu", PlanFor(graph, *partitioning, topo, SpstOptions{}), topo);
}

TEST(GoldenPlanTest, NoNvlink4Gpu) {
  CsrGraph graph = CorpusGraph(79);
  Topology topo = BuildPaperTopology(4, /*nvlink=*/false);  // PCIe-only medium
  MultilevelPartitioner metis;
  CheckGolden("nonvlink_4gpu", PlanFor(graph, *metis.Partition(graph, 4), topo, SpstOptions{}),
              topo);
}

TEST(GoldenPlanTest, PostRecovery7Gpu) {
  CsrGraph graph = CorpusGraph(83);
  auto ctx = DgclContext::Init(BuildPaperTopology(8), {});
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
  auto report = ctx->Recover(DeviceMask{1} << 3);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The recovered plan is the product of the incremental repartition — a
  // different artifact than a fresh 7-GPU plan, which is exactly why it gets
  // its own golden file.
  CheckGolden("postrecovery_7gpu", ctx->artifacts().compiled, ctx->topology());
}

}  // namespace
}  // namespace dgcl

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regenerate") {
      dgcl::g_regenerate = true;
    }
  }
  return RUN_ALL_TESTS();
}
