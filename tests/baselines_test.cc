#include "planner/baselines.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "planner/cost_model.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

CommRelation MakeRelation(const CsrGraph& g, uint32_t num_gpus) {
  HashPartitioner hash;
  return *BuildCommRelation(g, *hash.Partition(g, num_gpus));
}

TEST(PeerToPeerTest, OneEdgePerDestinationAllStageZero) {
  Rng rng(1);
  CsrGraph g = GenerateErdosRenyi(60, 180, rng);
  Topology topo = BuildPaperTopology(8);
  CommRelation rel = MakeRelation(g, 8);
  PeerToPeerPlanner p2p;
  auto plan = p2p.Plan(rel, topo, 1024);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, rel, topo).ok());
  for (const CommTree& tree : plan->trees) {
    for (const TreeEdge& e : tree.edges) {
      EXPECT_EQ(e.stage, 0u);
      EXPECT_EQ(topo.link(e.link).src, rel.source[tree.vertex]);
    }
  }
  EXPECT_EQ(PlanTotalTraffic(*plan), rel.TotalTransfers());
}

TEST(BaselinesTest, MismatchedDeviceCountsRejected) {
  Rng rng(4);
  CsrGraph g = GenerateErdosRenyi(30, 60, rng);
  CommRelation rel = MakeRelation(g, 4);
  Topology topo = BuildPaperTopology(8);
  PeerToPeerPlanner p2p;
  EXPECT_FALSE(p2p.Plan(rel, topo, 1024).ok());
}

}  // namespace
}  // namespace dgcl
