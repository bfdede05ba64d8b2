#include "partition/multilevel.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace dgcl {
namespace {

TEST(MultilevelTest, SinglePartTrivial) {
  Rng rng(1);
  CsrGraph g = GenerateErdosRenyi(50, 100, rng);
  MultilevelPartitioner p;
  auto result = p.Partition(g, 1);
  ASSERT_TRUE(result.ok());
  for (uint32_t part : result->assignment) {
    EXPECT_EQ(part, 0u);
  }
}

TEST(MultilevelTest, MorePartsThanVerticesGivesSingletons) {
  auto g = CsrGraph::FromEdges(3, {{0, 1}, {1, 2}}, true);
  ASSERT_TRUE(g.ok());
  MultilevelPartitioner p;
  auto result = p.Partition(*g, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ValidatePartitioning(*g, *result).ok());
  EXPECT_EQ(result->assignment, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(MultilevelTest, RejectsZeroParts) {
  CsrGraph g;
  MultilevelPartitioner p;
  EXPECT_FALSE(p.Partition(g, 0).ok());
}

TEST(MultilevelTest, RecoversPlantedCommunities) {
  Rng rng(7);
  CsrGraph g = GenerateCommunityGraph(2000, 4, 12.0, 0.5, rng);
  MultilevelPartitioner p;
  auto result = p.Partition(g, 4);
  ASSERT_TRUE(result.ok());
  PartitionQuality q = EvaluatePartition(g, *result);
  // Cut should be near the planted inter-community fraction, far below random.
  RandomPartitioner random(3);
  PartitionQuality qr = EvaluatePartition(g, *random.Partition(g, 4));
  EXPECT_LT(q.cut_fraction, qr.cut_fraction * 0.4);
}

struct SweepParam {
  uint32_t vertices;
  uint32_t parts;
};

class MultilevelSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MultilevelSweep, ValidBalancedAndBetterThanRandom) {
  const auto [n, k] = GetParam();
  Rng rng(n * 31 + k);
  CsrGraph g = GenerateCommunityGraph(n, 8, 10.0, 1.0, rng);
  MultilevelPartitioner p;
  auto result = p.Partition(g, k);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(ValidatePartitioning(g, *result).ok());
  PartitionQuality q = EvaluatePartition(g, *result);
  EXPECT_LE(q.balance, 1.12) << "n=" << n << " k=" << k;

  RandomPartitioner random(11);
  PartitionQuality qr = EvaluatePartition(g, *random.Partition(g, k));
  EXPECT_LT(q.edge_cut, qr.edge_cut) << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sizes, MultilevelSweep,
                         ::testing::Values(SweepParam{200, 2}, SweepParam{200, 8},
                                           SweepParam{1000, 2}, SweepParam{1000, 4},
                                           SweepParam{1000, 16}, SweepParam{5000, 8},
                                           SweepParam{5000, 16}),
                         [](const auto& info) {
                           std::string name = "n";
                           name += std::to_string(info.param.vertices);
                           name += 'k';
                           name += std::to_string(info.param.parts);
                           return name;
                         });

TEST(MultilevelTest, RmatGraphBalanced) {
  Rng rng(12);
  RmatParams params;
  params.scale = 12;
  params.num_edges = 30000;
  CsrGraph g = GenerateRmat(params, rng);
  MultilevelPartitioner p;
  auto result = p.Partition(g, 8);
  ASSERT_TRUE(result.ok());
  PartitionQuality q = EvaluatePartition(g, *result);
  EXPECT_LE(q.balance, 1.12);
  EXPECT_LT(q.cut_fraction, 1.0);
}

TEST(MultilevelTest, DeterministicForSeed) {
  Rng rng(13);
  CsrGraph g = GenerateErdosRenyi(500, 2000, rng);
  MultilevelOptions opts;
  opts.seed = 5;
  MultilevelPartitioner a(opts);
  MultilevelPartitioner b(opts);
  EXPECT_EQ(a.Partition(g, 4)->assignment, b.Partition(g, 4)->assignment);
}

TEST(MultilevelTest, DisconnectedGraphStillCovered) {
  // Two disjoint triangles.
  auto g = CsrGraph::FromEdges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}, true);
  ASSERT_TRUE(g.ok());
  MultilevelPartitioner p;
  auto result = p.Partition(*g, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ValidatePartitioning(*g, *result).ok());
  PartitionQuality q = EvaluatePartition(*g, *result);
  EXPECT_EQ(q.edge_cut, 0u);  // optimal split keeps triangles whole
}


TEST(MultilevelTest, DegreeBalancingEqualizesEdgeLoads) {
  // A skewed RMAT graph: count-balanced parts leave one device with far more
  // incident edges than another; degree-balanced parts even the edge loads.
  Rng rng(21);
  RmatParams params;
  params.scale = 12;
  params.num_edges = 40000;
  CsrGraph g = GenerateRmat(params, rng);
  auto edge_imbalance = [&](const Partitioning& parts) {
    std::vector<uint64_t> edges(parts.num_parts, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      edges[parts.assignment[v]] += g.Degree(v);
    }
    const uint64_t max_edges = *std::max_element(edges.begin(), edges.end());
    const double mean = static_cast<double>(g.num_edges()) / parts.num_parts;
    return max_edges / mean;
  };
  MultilevelPartitioner by_count;
  MultilevelOptions degree_opts;
  degree_opts.balance_by_degree = true;
  MultilevelPartitioner by_degree(degree_opts);
  auto count_parts = by_count.Partition(g, 8);
  auto degree_parts = by_degree.Partition(g, 8);
  ASSERT_TRUE(count_parts.ok());
  ASSERT_TRUE(degree_parts.ok());
  ASSERT_TRUE(ValidatePartitioning(g, *degree_parts).ok());
  EXPECT_LT(edge_imbalance(*degree_parts), edge_imbalance(*count_parts));
  // And the degree-balanced max edge load is within the balance budget.
  EXPECT_LT(edge_imbalance(*degree_parts), 1.25);
}

TEST(MultilevelTest, DegreeBalancingStillCutsWellOnCommunities) {
  Rng rng(22);
  CsrGraph g = GenerateCommunityGraph(2000, 8, 10.0, 0.5, rng);
  MultilevelOptions opts;
  opts.balance_by_degree = true;
  MultilevelPartitioner p(opts);
  auto parts = p.Partition(g, 8);
  ASSERT_TRUE(parts.ok());
  PartitionQuality q = EvaluatePartition(g, *parts);
  RandomPartitioner random(9);
  PartitionQuality qr = EvaluatePartition(g, *random.Partition(g, 8));
  EXPECT_LT(q.edge_cut, qr.edge_cut / 2);
}

}  // namespace
}  // namespace dgcl
