#include "comm/compiled_plan.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "planner/baselines.h"
#include "planner/spst.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct Fixture {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;

  static Fixture Make(uint32_t num_gpus, uint32_t vertices, uint64_t seed) {
    Fixture f;
    Rng rng(seed);
    f.graph = GenerateErdosRenyi(vertices, vertices * 3, rng);
    f.topo = BuildPaperTopology(num_gpus);
    HashPartitioner hash;
    f.relation = *BuildCommRelation(f.graph, *hash.Partition(f.graph, num_gpus));
    return f;
  }
};

TEST(CompilePlanTest, BatchesByStageAndLink) {
  Fixture f = Fixture::Make(4, 40, 3);
  PeerToPeerPlanner p2p;
  CommPlan plan = *p2p.Plan(f.relation, f.topo, 1024);
  CompiledPlan compiled = CompilePlan(plan, f.topo);
  // No two ops share (stage, link).
  std::set<std::pair<uint32_t, LinkId>> seen;
  uint64_t total_vertices = 0;
  for (const TransferOp& op : compiled.ops) {
    EXPECT_TRUE(seen.insert({op.stage, op.link}).second);
    EXPECT_EQ(op.src, f.topo.link(op.link).src);
    EXPECT_EQ(op.dst, f.topo.link(op.link).dst);
    total_vertices += op.vertices.size();
    EXPECT_TRUE(std::is_sorted(op.vertices.begin(), op.vertices.end()));
  }
  EXPECT_EQ(total_vertices, PlanTotalTraffic(plan));
}

TEST(CompilePlanTest, OpsBySrcAndDstIndexEveryOp) {
  Fixture f = Fixture::Make(4, 40, 4);
  PeerToPeerPlanner p2p;
  CompiledPlan compiled = CompilePlan(*p2p.Plan(f.relation, f.topo, 1024), f.topo);
  uint64_t by_src = 0;
  for (const auto& ids : compiled.ops_by_src) {
    by_src += ids.size();
  }
  uint64_t by_dst = 0;
  for (const auto& ids : compiled.ops_by_dst) {
    by_dst += ids.size();
  }
  EXPECT_EQ(by_src, compiled.ops.size());
  EXPECT_EQ(by_dst, compiled.ops.size());
}

TEST(CompilePlanTest, TableBytesCountsBothSides) {
  Fixture f = Fixture::Make(2, 20, 5);
  PeerToPeerPlanner p2p;
  CompiledPlan compiled = CompilePlan(*p2p.Plan(f.relation, f.topo, 1024), f.topo);
  uint64_t ids = 0;
  for (const TransferOp& op : compiled.ops) {
    ids += op.vertices.size();
  }
  EXPECT_EQ(compiled.TableBytes(), 2 * ids * sizeof(VertexId));
}

TEST(ValidateCompiledPlanTest, AcceptsValidAndReportsExtras) {
  Fixture f = Fixture::Make(8, 60, 6);
  SpstPlanner spst;
  CompiledPlan compiled = CompilePlan(*spst.Plan(f.relation, f.topo, 1024), f.topo);
  std::vector<uint64_t> extras;
  EXPECT_TRUE(ValidateCompiledPlan(compiled, f.relation, f.topo, &extras).ok());
  ASSERT_EQ(extras.size(), 8u);
}

TEST(ValidateCompiledPlanTest, CatchesCausalityViolation) {
  Fixture f = Fixture::Make(4, 30, 7);
  PeerToPeerPlanner p2p;
  CompiledPlan compiled = CompilePlan(*p2p.Plan(f.relation, f.topo, 1024), f.topo);
  ASSERT_FALSE(compiled.ops.empty());
  // Make a device send a vertex it does not own.
  TransferOp& op = compiled.ops.front();
  VertexId foreign = kInvalidId;
  for (VertexId v = 0; v < f.graph.num_vertices(); ++v) {
    if (f.relation.source[v] != op.src) {
      foreign = v;
      break;
    }
  }
  ASSERT_NE(foreign, kInvalidId);
  op.vertices.push_back(foreign);
  std::sort(op.vertices.begin(), op.vertices.end());
  EXPECT_EQ(ValidateCompiledPlan(compiled, f.relation, f.topo).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ValidateCompiledPlanTest, CatchesMissedDelivery) {
  Fixture f = Fixture::Make(4, 30, 8);
  PeerToPeerPlanner p2p;
  CompiledPlan compiled = CompilePlan(*p2p.Plan(f.relation, f.topo, 1024), f.topo);
  ASSERT_FALSE(compiled.ops.empty());
  compiled.ops.front().vertices.pop_back();
  EXPECT_FALSE(ValidateCompiledPlan(compiled, f.relation, f.topo).ok());
}

// A vertex may enter a device only once: the engine sends a device's slot
// gradient home over every op that delivered the vertex there.
TEST(ValidateCompiledPlanTest, RejectsVertexDeliveredTwice) {
  Fixture f = Fixture::Make(4, 30, 9);
  PeerToPeerPlanner p2p;
  const CompiledPlan valid = CompilePlan(*p2p.Plan(f.relation, f.topo, 1024), f.topo);
  ASSERT_FALSE(valid.ops.empty());
  ASSERT_EQ(valid.num_stages, 1u);
  const TransferOp& first = valid.ops.front();
  ASSERT_FALSE(first.vertices.empty());
  {  // delivered again in a later stage over the same link
    CompiledPlan twice = valid;
    TransferOp again = first;
    again.stage = 1;
    again.vertices = {first.vertices.front()};
    twice.ops.push_back(again);
    twice.num_stages = 2;
    const Status s = ValidateCompiledPlan(twice, f.relation, f.topo);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
  {  // delivered twice by one op in one stage
    CompiledPlan twice = valid;
    TransferOp& op = twice.ops.front();
    op.vertices.insert(op.vertices.begin(), op.vertices.front());
    const Status s = ValidateCompiledPlan(twice, f.relation, f.topo);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
}

TEST(ValidateCompiledPlanTest, RejectsVertexDeliveredToItsOwner) {
  Fixture f = Fixture::Make(4, 30, 10);
  PeerToPeerPlanner p2p;
  CompiledPlan compiled = CompilePlan(*p2p.Plan(f.relation, f.topo, 1024), f.topo);
  ASSERT_FALSE(compiled.ops.empty());
  // Stage 0 moved v from its owner to `dst`; at stage 1 `dst` sends it back.
  const TransferOp& first = compiled.ops.front();
  ASSERT_FALSE(first.vertices.empty());
  const VertexId v = first.vertices.front();
  ASSERT_EQ(f.relation.source[v], first.src);
  TransferOp back;
  back.link = f.topo.LinkBetween(first.dst, first.src);
  ASSERT_NE(back.link, kInvalidId);
  back.src = first.dst;
  back.dst = first.src;
  back.stage = 1;
  back.vertices = {v};
  compiled.ops.push_back(back);
  compiled.num_stages = 2;
  const Status s = ValidateCompiledPlan(compiled, f.relation, f.topo);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

// §6.2 invariant: after sub-stage assignment, within each (receiving device,
// stage, substage) no vertex appears in two ops.
class SubstageSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubstageSweep, NoVertexTwicePerSubstage) {
  Fixture f = Fixture::Make(8, 80, GetParam());
  SpstPlanner spst;
  CompiledPlan compiled = CompilePlan(*spst.Plan(f.relation, f.topo, 1024), f.topo);
  AssignBackwardSubstages(compiled);
  // Backward: receiving device of gradients is op.src.
  std::map<std::tuple<DeviceId, uint32_t, uint32_t>, std::set<VertexId>> seen;
  for (const TransferOp& op : compiled.ops) {
    auto& set = seen[{op.src, op.stage, op.substage}];
    for (VertexId v : op.vertices) {
      EXPECT_TRUE(set.insert(v).second)
          << "vertex " << v << " twice at device " << op.src << " stage " << op.stage
          << " substage " << op.substage;
    }
  }
  EXPECT_LT(compiled.MaxSubstages(), f.relation.num_devices);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubstageSweep, ::testing::Values(11u, 12u, 13u, 14u, 15u));

TEST(SubstageTest, P2PSingleSourceNeedsOneSubstagePerPeer) {
  // With P2P every vertex reaches each destination in one op; gradients for a
  // vertex come back from multiple peers — they must land in distinct
  // substages at the source.
  Fixture f = Fixture::Make(4, 40, 16);
  PeerToPeerPlanner p2p;
  CompiledPlan compiled = CompilePlan(*p2p.Plan(f.relation, f.topo, 1024), f.topo);
  AssignBackwardSubstages(compiled);
  // Find a vertex sent to >= 2 destinations and check its two ops differ.
  std::map<std::pair<DeviceId, VertexId>, std::set<uint32_t>> substages;
  for (const TransferOp& op : compiled.ops) {
    for (VertexId v : op.vertices) {
      substages[{op.src, v}].insert(op.substage);
    }
  }
  bool found_multi = false;
  for (VertexId v = 0; v < f.graph.num_vertices(); ++v) {
    if (std::popcount(f.relation.dest_mask[v]) >= 2) {
      found_multi = true;
      const auto& subs = substages[std::pair<DeviceId, VertexId>{f.relation.source[v], v}];
      EXPECT_GE(subs.size(), 2u);
    }
  }
  EXPECT_TRUE(found_multi);
}

}  // namespace
}  // namespace dgcl
