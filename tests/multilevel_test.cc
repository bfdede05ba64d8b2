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
uint64_t Fingerprint(const CsrGraph& g, uint32_t k, MultilevelOptions opts = {}) {
  MultilevelPartitioner p(opts);
  auto parts = p.Partition(g, k);
  if (!parts.ok()) {
    ADD_FAILURE() << parts.status().ToString();
    return 0;
  }
  EXPECT_TRUE(ValidatePartitioning(g, *parts).ok());
  return AssignmentHash(*parts);
}

CsrGraph PinnedCommunityGraph() {
  Rng rng(31);
  return GenerateCommunityGraph(6000, 8, 12.0, 0.5, rng);
}

CsrGraph PinnedRmatGraph() {
  Rng rng(32);
  RmatParams params;
  params.scale = 13;
  params.num_edges = 60000;
  return GenerateRmat(params, rng);
}

// Each edge of a symmetric graph kept in one direction only, so a coarse row
// cannot be recovered from the rows that point at it.
CsrGraph OneWay(const CsrGraph& symmetric) {
  Rng coin(33);
  std::vector<Edge> directed;
  for (VertexId v = 0; v < symmetric.num_vertices(); ++v) {
    for (VertexId u : symmetric.Neighbors(v)) {
      if (v < u) {
        directed.push_back(coin.UniformInt(2) == 0 ? Edge{v, u} : Edge{u, v});
      }
    }
  }
  auto one_way = CsrGraph::FromEdges(symmetric.num_vertices(), std::move(directed),
                                     /*symmetrize=*/false);
  EXPECT_TRUE(one_way.ok());
  return std::move(one_way).value();
}

TEST(MultilevelTest, AssignmentFingerprintsArePinned) {
  CsrGraph community = PinnedCommunityGraph();
  EXPECT_EQ(Fingerprint(community, 8), 0x9485eb7c673ff325ULL);

  CsrGraph rmat = PinnedRmatGraph();
  EXPECT_EQ(Fingerprint(rmat, 8), 0x84a6378879557c49ULL);

  CsrGraph one_way = OneWay(community);
  EXPECT_EQ(Fingerprint(one_way, 4), 0xac0cd76b6ca4c841ULL);

  MultilevelOptions by_degree;
  by_degree.balance_by_degree = true;
  EXPECT_EQ(Fingerprint(rmat, 8, by_degree), 0xe30b9638293a89b6ULL);

  Rng orkut_rng(34);
  CsrGraph orkut_like = GenerateCommunityGraph(12000, 16, 14.0, 0.6, orkut_rng);
  MultilevelPartitioner inner;
  auto sixteen = PartitionForTopology(orkut_like, BuildPaperTopology(16), inner);
  ASSERT_TRUE(sixteen.ok());
  ASSERT_TRUE(ValidatePartitioning(orkut_like, *sixteen).ok());
  EXPECT_EQ(AssignmentHash(*sixteen), 0x416a393b22627648ULL);
}

// More pins over the same graphs: part counts that are and are not powers of
// two, a one-way graph at 8 parts, degree balance at 2 parts, and a graph in
// which every fifth vertex is isolated. Refinement's tie break (toward the
// lighter part) and the order of each coarse row both decide assignments
// here, so a change to either shows up as a moved fingerprint.
TEST(MultilevelTest, AssignmentSweepIsPinned) {
  CsrGraph community = PinnedCommunityGraph();
  CsrGraph rmat = PinnedRmatGraph();
  const uint32_t ks[] = {2, 3, 5, 16};
  const uint64_t community_pins[] = {0x6d366555f6a2866dULL, 0x00853893761a3a3bULL,
                                     0x13ecc4ef8956d885ULL, 0x31e0a535b557809bULL};
  const uint64_t rmat_pins[] = {0xd52cd11cdc62d11fULL, 0x0811ce47067c7e39ULL,
                                0x425886e039fb72efULL, 0xdae00c3c8837dbceULL};
  for (size_t i = 0; i < std::size(ks); ++i) {
    EXPECT_EQ(Fingerprint(community, ks[i]), community_pins[i]) << "community k=" << ks[i];
    EXPECT_EQ(Fingerprint(rmat, ks[i]), rmat_pins[i]) << "rmat k=" << ks[i];
  }

  EXPECT_EQ(Fingerprint(OneWay(community), 8), 0x745020e2764634eeULL);

  MultilevelOptions by_degree;
  by_degree.balance_by_degree = true;
  EXPECT_EQ(Fingerprint(rmat, 2, by_degree), 0x137a32c1b60937bbULL);

  // Vertex v of a community graph becomes v + v / 4, leaving every fifth id
  // without edges.
  Rng rng(35);
  CsrGraph dense = GenerateCommunityGraph(4000, 8, 10.0, 0.5, rng);
  std::vector<Edge> spread;
  for (VertexId v = 0; v < dense.num_vertices(); ++v) {
    for (VertexId u : dense.Neighbors(v)) {
      spread.push_back({v + v / 4, u + u / 4});
    }
  }
  auto isolated = CsrGraph::FromEdges(5000, std::move(spread), /*symmetrize=*/false);
  ASSERT_TRUE(isolated.ok());
  EXPECT_EQ(Fingerprint(*isolated, 4), 0x004814869fa17049ULL);
  EXPECT_EQ(Fingerprint(*isolated, 16), 0x13b67dc48f31aa7bULL);
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
