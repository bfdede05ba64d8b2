// Planner property suite: invariants every produced class plan must satisfy,
// checked over seeded-random relations × random strongly-connected
// topologies (the fuzz-sweep generator) and over the planner's own option
// space (chunking on/off, shuffle on/off, chunk-size bound).
//
// Core invariants (DESIGN.md §"Invariants under test"):
//  * every class tree is rooted at the class source: each edge leaves a
//    device already in the tree, and no device is entered twice;
//  * stage numbers increase along every root-to-leaf path (an edge's stage
//    equals its parent's depth, so children always execute later);
//  * the tree spans the destination mask — every destination is entered,
//    and every leaf is a destination (relays are interior nodes only);
//  * chunks partition each class: the [first, first+count) ranges of a
//    class's trees tile [0, weight) exactly;
//  * replaying the plan's trees through a fresh CostModel reproduces the
//    planner's reported cost bit-for-bit (planned_cost_seconds).

#include <gtest/gtest.h>

#include <initializer_list>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "comm/relation.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "planner/baselines.h"
#include "planner/cost_model.h"
#include "planner/spst.h"
#include "random_topology.h"

namespace dgcl {
namespace {

struct RandomWorkload {
  Topology topo;
  CommRelation relation;
  CommClasses classes;
  uint32_t devices = 0;
};

// `fully_connected` draws a link for every device pair
// (BuildRandomFullyConnectedTopology) instead of the random ring with
// shortcuts, so the baselines can plan.
RandomWorkload MakeWorkload(uint64_t seed, bool fully_connected = false) {
  RandomWorkload w;
  Rng rng(seed);
  w.devices = 2 + static_cast<uint32_t>(rng.UniformInt(9));
  if (fully_connected) {
    BuildRandomFullyConnectedTopology(w.devices, rng, w.topo);
  } else {
    BuildRandomTopology(w.devices, rng, w.topo);
  }
  CsrGraph graph = GenerateErdosRenyi(60 + static_cast<VertexId>(rng.UniformInt(80)),
                                      300 + rng.UniformInt(300), rng);
  RandomPartitioner partitioner(seed);
  w.relation = *BuildCommRelation(graph, *partitioner.Partition(graph, w.devices));
  w.classes = BuildCommClasses(w.relation);
  return w;
}

// Walks one class tree and checks the structural invariants; returns the set
// of devices in the tree (root included).
void CheckTreeStructure(const ClassTree& tree, const CommClass& cls, const Topology& topo) {
  std::map<uint32_t, uint32_t> depth;  // device -> depth in tree
  depth[cls.source] = 0;
  DeviceMask leaves = DeviceMask{1} << cls.source;  // devices with no children yet
  for (const TreeEdge& e : tree.edges) {
    ASSERT_LT(e.link, topo.num_links());
    const Link& link = topo.link(e.link);
    // Parent must already be in the tree (edges are parent-before-child).
    auto parent = depth.find(link.src);
    ASSERT_NE(parent, depth.end()) << "edge leaves a device not yet in the tree";
    // A tree enters every device at most once.
    ASSERT_EQ(depth.count(link.dst), 0u) << "device entered twice";
    // Stage == parent depth: stages strictly increase along every
    // root-to-leaf path.
    EXPECT_EQ(e.stage, parent->second);
    depth[link.dst] = e.stage + 1;
    leaves &= ~(DeviceMask{1} << link.src);
    leaves |= DeviceMask{1} << link.dst;
  }
  // Spans the destination mask: every destination entered...
  DeviceMask covered = 0;
  for (const auto& [device, d] : depth) {
    (void)d;
    covered |= DeviceMask{1} << device;
  }
  EXPECT_EQ(cls.mask & ~covered, 0u) << "destination not covered by tree";
  // ...and nothing dangles: every leaf is a destination (or the root when
  // the class needs no transfers at all, which BuildCommClasses excludes).
  EXPECT_EQ(leaves & ~cls.mask, 0u) << "non-destination leaf (useless transfer)";
}

void CheckClassPlan(const ClassPlan& plan, const CommClasses& classes, const Topology& topo,
                    double bytes_per_unit) {
  // Chunk ranges tile every class's [0, weight).
  std::vector<std::vector<char>> covered(classes.classes.size());
  for (size_t c = 0; c < classes.classes.size(); ++c) {
    covered[c].assign(classes.classes[c].vertices.size(), 0);
  }
  for (const ClassTree& tree : plan.trees) {
    ASSERT_LT(tree.class_id, classes.classes.size());
    ASSERT_GE(tree.count, 1u);
    ASSERT_LE(static_cast<uint64_t>(tree.first) + tree.count,
              covered[tree.class_id].size());
    for (uint32_t i = tree.first; i < tree.first + tree.count; ++i) {
      EXPECT_EQ(covered[tree.class_id][i], 0) << "vertex planned twice";
      covered[tree.class_id][i] = 1;
    }
    CheckTreeStructure(tree, classes.classes[tree.class_id], topo);
  }
  for (const auto& bits : covered) {
    for (char bit : bits) {
      EXPECT_EQ(bit, 1) << "vertex left unplanned";
    }
  }
  // Replaying the plan through a fresh cost model reproduces the planner's
  // reported cost exactly (not approximately: same AddTransfer sequence).
  EXPECT_EQ(ReplayClassPlanCost(plan, topo, bytes_per_unit), plan.planned_cost_seconds);
}

constexpr uint64_t kSeeds[] = {2001u, 2002u, 2003u, 2004u, 2005u, 2006u,
                               2007u, 2008u, 2009u, 2010u, 2011u, 2012u};

class PlannerPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerPropertySweep, SpstInvariantsAcrossOptionSpace) {
  RandomWorkload w = MakeWorkload(GetParam());
  const double bytes = 512.0;
  SpstOptions variants[5];
  variants[1].max_class_units = 0;  // per-vertex planning
  variants[2].shuffle = false;
  variants[3].max_class_units = 8;
  variants[3].min_chunks = 0;
  variants[4].max_class_units = 4;  // many small chunks
  variants[4].min_chunks = 0;
  for (const SpstOptions& opts : variants) {
    SpstPlanner planner(opts);
    auto plan = planner.PlanClasses(w.classes, w.topo, bytes);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    CheckClassPlan(*plan, w.classes, w.topo, bytes);
    // The per-vertex expansion must also validate against the relation.
    CommPlan expanded = ExpandClassPlan(*plan, w.classes);
    ASSERT_TRUE(ValidatePlan(expanded, w.relation, w.topo).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerPropertySweep, ::testing::ValuesIn(kSeeds));

// Peer-to-peer needs a direct link to every destination and swap a link to
// and from the source socket's hub, so on the random ring with shortcuts
// each is checked wherever it plans. Every seed also draws a fully connected
// topology, where both must plan, so the check cannot pass vacuously.
TEST(PlannerPropertyTest, BaselineInvariants) {
  const double bytes = 256.0;
  PeerToPeerPlanner p2p;
  SwapPlanner swap;
  std::map<std::string, size_t> fully_connected_plans;
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const RandomWorkload ring = MakeWorkload(seed ^ 0xBA5Eu);
    const RandomWorkload full = MakeWorkload(seed ^ 0xBA5Eu, /*fully_connected=*/true);
    for (Planner* planner : std::initializer_list<Planner*>{&p2p, &swap}) {
      SCOPED_TRACE(planner->name());
      auto ring_plan = planner->PlanClasses(ring.classes, ring.topo, bytes);
      if (ring_plan.ok()) {
        CheckClassPlan(*ring_plan, ring.classes, ring.topo, bytes);
      }
      auto full_plan = planner->PlanClasses(full.classes, full.topo, bytes);
      EXPECT_TRUE(full_plan.ok()) << full_plan.status().ToString();
      if (full_plan.ok()) {
        ++fully_connected_plans[planner->name()];
        CheckClassPlan(*full_plan, full.classes, full.topo, bytes);
      }
    }
  }
  EXPECT_EQ(fully_connected_plans["p2p"], std::size(kSeeds));
  EXPECT_EQ(fully_connected_plans["swap"], std::size(kSeeds));
}

}  // namespace
}  // namespace dgcl
