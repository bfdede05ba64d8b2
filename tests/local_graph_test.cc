#include "gnn/local_graph.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace dgcl {
namespace {

TEST(LocalGraphTest, FullGraphIsIdentityMapping) {
  CsrGraph g = GenerateGrid(3, 3);
  LocalGraph lg = FullLocalGraph(g);
  EXPECT_EQ(lg.num_compute, 9u);
  EXPECT_EQ(lg.num_slots, 9u);
  for (VertexId v = 0; v < 9; ++v) {
    auto expected = g.Neighbors(v);
    auto actual = lg.Neighbors(v);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]);
    }
  }
}

TEST(LocalGraphTest, RemoteNeighborsMapToRemoteSlots) {
  // Path 0-1-2-3 split {0,1} | {2,3}.
  auto g = CsrGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, true);
  ASSERT_TRUE(g.ok());
  Partitioning p;
  p.num_parts = 2;
  p.assignment = {0, 0, 1, 1};
  CommRelation rel = *BuildCommRelation(*g, p);
  LocalGraph lg0 = BuildLocalGraph(*g, rel, 0);
  EXPECT_EQ(lg0.num_compute, 2u);
  EXPECT_EQ(lg0.num_slots, 3u);  // locals {0,1} + remote {2}
  // Local row 1 (= vertex 1) has neighbors vertex 0 (slot 0) and 2 (slot 2).
  auto nbrs = lg0.Neighbors(1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 2u);
}

TEST(LocalGraphTest, EdgeCountsConserved) {
  Rng rng(9);
  CsrGraph g = GenerateErdosRenyi(100, 300, rng);
  HashPartitioner hash;
  CommRelation rel = *BuildCommRelation(g, *hash.Partition(g, 4));
  uint64_t local_edges = 0;
  for (uint32_t d = 0; d < 4; ++d) {
    LocalGraph lg = BuildLocalGraph(g, rel, d);
    local_edges += lg.nbr_slots.size();
    EXPECT_EQ(lg.num_compute, rel.local_vertices[d].size());
    EXPECT_EQ(lg.num_slots, rel.local_vertices[d].size() + rel.remote_vertices[d].size());
    for (uint32_t slot : lg.nbr_slots) {
      EXPECT_LT(slot, lg.num_slots);
    }
  }
  EXPECT_EQ(local_edges, g.num_edges());
}

// Slot s's readers are exactly the rows that read it (row s itself, and each
// row once per time it lists s), in ascending order.
TEST(LocalGraphTest, ReadersTransposeAggregationWithSelf) {
  Rng rng(11);
  CsrGraph g = GenerateErdosRenyi(120, 500, rng);
  HashPartitioner hash;
  CommRelation rel = *BuildCommRelation(g, *hash.Partition(g, 3));
  for (uint32_t d = 0; d < 3; ++d) {
    const LocalGraph lg = BuildLocalGraph(g, rel, d);
    ASSERT_TRUE(lg.HasReaders());
    ASSERT_EQ(lg.reader_offsets.size(), lg.num_slots + 1u);
    std::vector<std::vector<uint32_t>> want(lg.num_slots);
    for (uint32_t i = 0; i < lg.num_compute; ++i) {
      want[i].push_back(i);
      for (uint32_t slot : lg.Neighbors(i)) {
        want[slot].push_back(i);
      }
    }
    for (uint32_t s = 0; s < lg.num_slots; ++s) {
      auto got = lg.Readers(s);
      EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want[s]) << "slot " << s;
    }
  }
}

TEST(LocalGraphTest, FullGraphHasNoReadersUntilBuilt) {
  // Triangle plus a self loop on vertex 0 and an isolated vertex 3.
  auto g = CsrGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 0}, {0, 0}}, true);
  ASSERT_TRUE(g.ok());
  LocalGraph lg = FullLocalGraph(*g);
  EXPECT_FALSE(lg.HasReaders());
  BuildReaders(lg);
  ASSERT_TRUE(lg.HasReaders());
  for (uint32_t s = 0; s < 4; ++s) {
    std::vector<uint32_t> want;
    for (uint32_t i = 0; i < 4; ++i) {
      if (i == s) {
        want.push_back(i);
      }
      for (uint32_t slot : lg.Neighbors(i)) {
        if (slot == s) {
          want.push_back(i);
        }
      }
    }
    auto got = lg.Readers(s);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want) << "slot " << s;
  }
  EXPECT_EQ(lg.Readers(3).size(), 1u);  // isolated: only itself
}

}  // namespace
}  // namespace dgcl
