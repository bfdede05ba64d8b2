#include "partition/multilevel.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "partition/hierarchical.h"
#include "topology/presets.h"

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

// FNV-1a over the assignment words: a compact fingerprint of a partition.
uint64_t AssignmentHash(const Partitioning& parts) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t part : parts.assignment) {
    h = (h ^ part) * 0x100000001b3ULL;
  }
  return h;
}

// The partitioner's output is pinned, not just its quality: planner golden
// files, loss trajectories and serving digests all sit on these assignments,
// and the golden plans only cover symmetric community graphs. Change a value
// only with a change that means to move the partitioner's output.
TEST(MultilevelTest, AssignmentFingerprintsArePinned) {
  auto fingerprint = [](const CsrGraph& g, uint32_t k, MultilevelOptions opts = {}) {
    MultilevelPartitioner p(opts);
    auto parts = p.Partition(g, k);
    if (!parts.ok()) {
      ADD_FAILURE() << parts.status().ToString();
      return uint64_t{0};
    }
    EXPECT_TRUE(ValidatePartitioning(g, *parts).ok());
    return AssignmentHash(*parts);
  };

  Rng community_rng(31);
  CsrGraph community = GenerateCommunityGraph(6000, 8, 12.0, 0.5, community_rng);
  EXPECT_EQ(fingerprint(community, 8), 0x9485eb7c673ff325ULL);

  Rng rmat_rng(32);
  RmatParams params;
  params.scale = 13;
  params.num_edges = 60000;
  CsrGraph rmat = GenerateRmat(params, rmat_rng);
  EXPECT_EQ(fingerprint(rmat, 8), 0x84a6378879557c49ULL);

  // Directed: each community edge kept in one direction only, so a coarse
  // row cannot be recovered from the rows that point at it.
  Rng coin(33);
  std::vector<Edge> directed;
  for (VertexId v = 0; v < community.num_vertices(); ++v) {
    for (VertexId u : community.Neighbors(v)) {
      if (v < u) {
        directed.push_back(coin.UniformInt(2) == 0 ? Edge{v, u} : Edge{u, v});
      }
    }
  }
  auto one_way = CsrGraph::FromEdges(community.num_vertices(), std::move(directed),
                                     /*symmetrize=*/false);
  ASSERT_TRUE(one_way.ok());
  EXPECT_EQ(fingerprint(*one_way, 4), 0xac0cd76b6ca4c841ULL);

  MultilevelOptions by_degree;
  by_degree.balance_by_degree = true;
  EXPECT_EQ(fingerprint(rmat, 8, by_degree), 0xe30b9638293a89b6ULL);

  Rng orkut_rng(34);
  CsrGraph orkut_like = GenerateCommunityGraph(12000, 16, 14.0, 0.6, orkut_rng);
  MultilevelPartitioner inner;
  auto sixteen = PartitionForTopology(orkut_like, BuildPaperTopology(16), inner);
  ASSERT_TRUE(sixteen.ok());
  ASSERT_TRUE(ValidatePartitioning(orkut_like, *sixteen).ok());
  EXPECT_EQ(AssignmentHash(*sixteen), 0x416a393b22627648ULL);
}

// Balanced by degree, a star's hub alone outweighs the part cap, and a star
// does not coarsen, so Refine always ends in the balance-repair loop. The hub
// has the highest id, so draining its part moves a leaf first and must resume
// past it to reach the hub; the hub then overfills the part it lands on, which
// is drained in turn. The loop must terminate and leave every vertex placed,
// with the assignment a scan restarting from vertex 0 after every move gives.
TEST(MultilevelTest, BalanceRepairDrainsAStarHub) {
  constexpr VertexId kLeaves = 3000;
  std::vector<Edge> edges;
  for (VertexId v = 0; v < kLeaves; ++v) {
    edges.push_back({v, kLeaves});
  }
  auto star = CsrGraph::FromEdges(kLeaves + 1, std::move(edges));
  ASSERT_TRUE(star.ok());
  MultilevelOptions opts;
  opts.balance_by_degree = true;
  MultilevelPartitioner p(opts);
  auto parts = p.Partition(*star, 8);
  ASSERT_TRUE(parts.ok());
  ASSERT_TRUE(ValidatePartitioning(*star, *parts).ok());
  EXPECT_EQ(AssignmentHash(*parts), 0xcb00a28481de23ecULL);
}

}  // namespace
}  // namespace dgcl
