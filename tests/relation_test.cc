#include "comm/relation.h"

#include <bit>

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace dgcl {
namespace {

// The Figure 1 example of the paper: vertices a..l = 0..11, partitioned onto
// 4 GPUs. Edges transcribed from Figure 1a.
CsrGraph Figure1Graph() {
  // a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10 l=11
  std::vector<Edge> edges = {
      {0, 1}, {0, 2}, {0, 3}, {0, 5}, {0, 9},  // a: b c d f j
      {1, 2},                                  // b: c
      {3, 4}, {3, 5},                          // d: e f
      {4, 8},                                  // e: i
      {5, 7},                                  // f: h
      {6, 7},                                  // g: h
      {7, 8},                                  // h: i
      {9, 10}, {9, 11},                        // j: k l
      {10, 11},                                // k: l
  };
  return std::move(CsrGraph::FromEdges(12, edges, true)).value();
}

Partitioning Figure1Partitioning() {
  Partitioning p;
  p.num_parts = 4;
  // GPU1 {a,b,c}, GPU2 {d,e,f}, GPU3 {g,h,i}, GPU4 {j,k,l} (0-indexed here).
  p.assignment = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3};
  return p;
}

TEST(RelationTest, Figure1LocalAndRemoteSets) {
  CsrGraph g = Figure1Graph();
  auto rel = BuildCommRelation(g, Figure1Partitioning());
  ASSERT_TRUE(rel.ok());
  // Paper §4.1: V_l(1) = {a, b, c}; the remotes are the off-partition direct
  // neighbors of those locals: d, f (GPU2) and j (GPU4).
  EXPECT_EQ(rel->local_vertices[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(rel->remote_vertices[0], (std::vector<VertexId>{3, 5, 9}));
}

TEST(RelationTest, Figure1SourceAndDestinations) {
  CsrGraph g = Figure1Graph();
  auto rel = BuildCommRelation(g, Figure1Partitioning());
  ASSERT_TRUE(rel.ok());
  // Vertex a (0) lives on GPU0 and is needed by GPU1 (via d, f) and GPU3 (j).
  EXPECT_EQ(rel->source[0], 0u);
  EXPECT_EQ(rel->dest_mask[0], (DeviceMask{1} << 1) | (DeviceMask{1} << 3));
  // Vertex b (1) has only local neighbors.
  EXPECT_EQ(rel->dest_mask[1], 0u);
  // Vertex h (7) on GPU2 is needed by GPU1 (f is its neighbor).
  EXPECT_EQ(rel->dest_mask[7], DeviceMask{1} << 1);
}

TEST(RelationTest, PairVolumesMatchMasks) {
  CsrGraph g = Figure1Graph();
  auto rel = BuildCommRelation(g, Figure1Partitioning());
  ASSERT_TRUE(rel.ok());
  auto volumes = rel->PairVolumes();
  uint64_t total = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(volumes[i][i], 0u);
    for (uint32_t j = 0; j < 4; ++j) {
      total += volumes[i][j];
    }
  }
  EXPECT_EQ(total, rel->TotalTransfers());
  EXPECT_GE(volumes[0][1], 1u);  // a -> GPU1
  EXPECT_GE(volumes[0][3], 1u);  // a -> GPU3
}

TEST(RelationTest, RemoteSetsMirrorDestMasks) {
  Rng rng(5);
  CsrGraph g = GenerateErdosRenyi(300, 900, rng);
  HashPartitioner hash;
  auto rel = BuildCommRelation(g, *hash.Partition(g, 6));
  ASSERT_TRUE(rel.ok());
  for (uint32_t d = 0; d < 6; ++d) {
    for (VertexId v : rel->remote_vertices[d]) {
      EXPECT_TRUE((rel->dest_mask[v] >> d) & 1);
      EXPECT_NE(rel->source[v], d);
    }
  }
  uint64_t mask_count = 0;
  for (DeviceMask m : rel->dest_mask) {
    mask_count += std::popcount(m);
  }
  uint64_t list_count = 0;
  for (const auto& remotes : rel->remote_vertices) {
    list_count += remotes.size();
  }
  EXPECT_EQ(mask_count, list_count);
}

TEST(RelationTest, LocalVerticesPartitionTheGraph) {
  Rng rng(6);
  CsrGraph g = GenerateErdosRenyi(200, 500, rng);
  RandomPartitioner random(3);
  auto rel = BuildCommRelation(g, *random.Partition(g, 5));
  ASSERT_TRUE(rel.ok());
  uint64_t total = 0;
  for (const auto& locals : rel->local_vertices) {
    total += locals.size();
  }
  EXPECT_EQ(total, g.num_vertices());
}

TEST(RelationTest, SingleDeviceHasNoTraffic) {
  Rng rng(7);
  CsrGraph g = GenerateErdosRenyi(50, 100, rng);
  HashPartitioner hash;
  auto rel = BuildCommRelation(g, *hash.Partition(g, 1));
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->TotalTransfers(), 0u);
  EXPECT_TRUE(rel->VerticesWithDestinations().empty());
}

TEST(RelationTest, RejectsInvalidPartitioning) {
  CsrGraph g = Figure1Graph();
  Partitioning bad;
  bad.num_parts = 2;
  bad.assignment = {0, 1};  // wrong size
  EXPECT_FALSE(BuildCommRelation(g, bad).ok());

  Partitioning out_of_range;
  out_of_range.num_parts = 2;
  out_of_range.assignment.assign(g.num_vertices(), 0);
  out_of_range.assignment[3] = 9;  // no such part
  EXPECT_FALSE(BuildCommRelation(g, out_of_range).ok());
}

TEST(RelationTest, RejectsTooManyDevices) {
  auto g = CsrGraph::FromEdges(2, {{0, 1}}, true);
  ASSERT_TRUE(g.ok());
  Partitioning p;
  p.num_parts = 100;
  p.assignment = {0, 1};
  EXPECT_EQ(BuildCommRelation(*g, p).status().code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, VerticesWithDestinationsAreExactlyBoundary) {
  CsrGraph g = Figure1Graph();
  auto rel = BuildCommRelation(g, Figure1Partitioning());
  ASSERT_TRUE(rel.ok());
  auto work = rel->VerticesWithDestinations();
  for (VertexId v : work) {
    EXPECT_NE(rel->dest_mask[v], 0u);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    bool in_work = std::find(work.begin(), work.end(), v) != work.end();
    EXPECT_EQ(in_work, rel->dest_mask[v] != 0);
  }
}

TEST(CommClassesTest, Figure1Grouping) {
  CsrGraph g = Figure1Graph();
  auto rel = BuildCommRelation(g, Figure1Partitioning());
  ASSERT_TRUE(rel.ok());
  CommClasses classes = BuildCommClasses(*rel);
  EXPECT_EQ(classes.num_devices, 4u);
  // Every class groups vertices with identical (source, dest_mask); weights
  // equal the member counts and the total covers all boundary vertices.
  for (const CommClass& cls : classes.classes) {
    ASSERT_FALSE(cls.vertices.empty());
    EXPECT_EQ(cls.weight, cls.vertices.size());
    EXPECT_NE(cls.mask, 0u);
    for (VertexId v : cls.vertices) {
      EXPECT_EQ(rel->source[v], cls.source);
      EXPECT_EQ(rel->dest_mask[v], cls.mask);
    }
  }
  EXPECT_EQ(classes.TotalWeight(), rel->VerticesWithDestinations().size());
}

TEST(CommClassesTest, DeterministicOrderAndCompleteness) {
  Rng rng(8);
  CsrGraph g = GenerateErdosRenyi(400, 1600, rng);
  HashPartitioner hash;
  auto rel = BuildCommRelation(g, *hash.Partition(g, 6));
  ASSERT_TRUE(rel.ok());
  CommClasses classes = BuildCommClasses(*rel);
  // Strictly ascending (source, mask) order; ascending member ids.
  for (size_t i = 1; i < classes.classes.size(); ++i) {
    const CommClass& a = classes.classes[i - 1];
    const CommClass& b = classes.classes[i];
    EXPECT_TRUE(a.source < b.source || (a.source == b.source && a.mask < b.mask));
  }
  std::vector<char> seen(g.num_vertices(), 0);
  for (const CommClass& cls : classes.classes) {
    for (size_t i = 1; i < cls.vertices.size(); ++i) {
      EXPECT_LT(cls.vertices[i - 1], cls.vertices[i]);
    }
    for (VertexId v : cls.vertices) {
      EXPECT_EQ(seen[v], 0);  // each vertex in exactly one class
      seen[v] = 1;
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(seen[v] != 0, rel->dest_mask[v] != 0);
  }
  // Rebuilding yields the identical view.
  CommClasses again = BuildCommClasses(*rel);
  ASSERT_EQ(again.classes.size(), classes.classes.size());
  for (size_t i = 0; i < classes.classes.size(); ++i) {
    EXPECT_EQ(again.classes[i].source, classes.classes[i].source);
    EXPECT_EQ(again.classes[i].mask, classes.classes[i].mask);
    EXPECT_EQ(again.classes[i].vertices, classes.classes[i].vertices);
  }
}

TEST(CommClassesTest, SingleDeviceHasNoClasses) {
  Rng rng(9);
  CsrGraph g = GenerateErdosRenyi(50, 100, rng);
  HashPartitioner hash;
  auto rel = BuildCommRelation(g, *hash.Partition(g, 1));
  ASSERT_TRUE(rel.ok());
  CommClasses classes = BuildCommClasses(*rel);
  EXPECT_TRUE(classes.classes.empty());
  EXPECT_EQ(classes.TotalWeight(), 0u);
}

}  // namespace
}  // namespace dgcl
