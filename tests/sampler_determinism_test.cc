// The serving determinism contract: a sampled set (and the inference output
// over it) is a pure function of (graph, request), independent of sampler
// pool width, queue order and which worker serves it — the serving analogue
// of plan_determinism_test.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/khop.h"
#include "service/sampler.h"
#include "service/service.h"

namespace dgcl {
namespace {

CsrGraph TestGraph() {
  Rng rng(23);
  return GenerateErdosRenyi(300, 2400, rng);
}

// ---- primitive-level determinism -------------------------------------------

TEST(SampleNeighborsTest, DeterministicSortedSubsetOfNeighbors) {
  CsrGraph graph = TestGraph();
  for (VertexId v : {0u, 17u, 123u, 299u}) {
    const auto once = SampleNeighbors(graph, v, 5, 42, 1);
    const auto again = SampleNeighbors(graph, v, 5, 42, 1);
    EXPECT_EQ(once, again);
    EXPECT_LE(once.size(), 5u);
    EXPECT_TRUE(std::is_sorted(once.begin(), once.end()));
    const auto neighbors = graph.Neighbors(v);
    for (VertexId nbr : once) {
      EXPECT_TRUE(std::binary_search(neighbors.begin(), neighbors.end(), nbr));
    }
    if (graph.Degree(v) <= 5) {
      EXPECT_EQ(once.size(), graph.Degree(v));
    }
  }
}

TEST(SampleNeighborsTest, SeedHopAndVertexAllChangeTheDraw) {
  CsrGraph graph = TestGraph();
  // Find a high-degree vertex so a differing draw is overwhelmingly likely.
  VertexId v = 0;
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    if (graph.Degree(u) > graph.Degree(v)) {
      v = u;
    }
  }
  ASSERT_GT(graph.Degree(v), 8u);
  const auto base = SampleNeighbors(graph, v, 4, 42, 1);
  EXPECT_NE(SampleNeighbors(graph, v, 4, 43, 1), base);
  EXPECT_NE(SampleNeighbors(graph, v, 4, 42, 2), base);
}

TEST(SampleKHopTest, PureFunctionOfSeedAndCappedByFanout) {
  CsrGraph graph = TestGraph();
  std::vector<VertexId> seeds = {3, 50, 200};
  SampleKHopOptions options{2, 3, 7};
  const auto once = SampleKHop(graph, seeds, options);
  EXPECT_EQ(SampleKHop(graph, seeds, options), once);
  EXPECT_TRUE(std::is_sorted(once.begin(), once.end()));
  // Fanout bound: |sample| <= seeds * (1 + f + f^2).
  EXPECT_LE(once.size(), 3u * (1 + 3 + 9));
  // Fanout >= max degree degenerates to the exact k-hop expansion.
  SampleKHopOptions exhaustive{2, 1'000'000, 7};
  EXPECT_EQ(SampleKHop(graph, seeds, exhaustive), ExpandKHop(graph, seeds, 2));
}

TEST(SampleLocalNodesTest, DeterministicSortedAndBounded) {
  CsrGraph graph = TestGraph();
  HashPartitioner partitioner;
  Partitioning partitioning = std::move(partitioner.Partition(graph, 4)).value();
  auto relation = BuildCommRelation(graph, partitioning);
  ASSERT_TRUE(relation.ok());
  const std::vector<VertexId>& locals = relation->local_vertices[1];
  const auto once = SampleLocalNodes(locals, 1, 10, 5);
  EXPECT_EQ(SampleLocalNodes(locals, 1, 10, 5), once);
  EXPECT_EQ(once.size(), 10u);
  EXPECT_TRUE(std::is_sorted(once.begin(), once.end()));
  for (VertexId v : once) {
    EXPECT_EQ(relation->source[v], 1u);
  }
  EXPECT_NE(SampleLocalNodes(locals, 1, 10, 6), once);
  // The shard id keys the draw as well as the seed.
  EXPECT_NE(SampleLocalNodes(locals, 2, 10, 5), once);
  // count >= locals returns every local vertex.
  EXPECT_EQ(SampleLocalNodes(locals, 1, static_cast<uint32_t>(locals.size()) + 5, 5), locals);
}

// ---- sampler vs single-machine reference -----------------------------------

TEST(NeighborSamplerTest, AllAliveMatchesSampleKHopByteForByte) {
  CsrGraph graph = TestGraph();
  HashPartitioner partitioner;
  Partitioning partitioning = std::move(partitioner.Partition(graph, 4)).value();
  auto relation = BuildCommRelation(graph, partitioning);
  ASSERT_TRUE(relation.ok());
  NeighborSampler sampler(&graph, &*relation);
  const DeviceMask all_alive = 0xF;
  for (uint64_t seed : {1ull, 2ull, 99ull}) {
    std::vector<VertexId> seeds = {5, 42, 250};
    SampleKHopOptions options{3, 4, seed};
    auto result = sampler.Sample(0, seeds, options, all_alive);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->nodes, SampleKHop(graph, seeds, options));
    // Home shard 0 + hash partitioning: some expansions were remote.
    EXPECT_GT(result->remote_expansions, 0u);
    EXPECT_NE(result->shards_touched & ~DeviceMask{1}, 0u);
  }
}

// ---- service-level: pool width must not matter -----------------------------

// Runs the same request mix through a service with `pool_width` samplers per
// shard and returns the responses keyed by request id.
std::map<uint64_t, SampleResponse> RunFleet(const CsrGraph& graph, uint32_t pool_width) {
  ServiceOptions options;
  options.num_shards = 4;
  options.samplers_per_shard = pool_width;
  options.partitioner = "hash";
  options.feature_dim = 8;
  options.hidden_dim = 4;
  auto service = GraphService::Create(graph, options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  (*service)->Start();
  constexpr uint32_t kRequests = 24;
  for (uint32_t i = 0; i < kRequests; ++i) {
    SampleRequest request;
    request.request_id = i;
    request.shard = i % 4;
    request.num_seeds = 8;
    request.sample = {2, 5, 1000 + i};
    request.run_inference = true;
    EXPECT_TRUE((*service)->Submit(std::move(request)).ok());
  }
  std::map<uint64_t, SampleResponse> by_id;
  for (uint32_t i = 0; i < kRequests; ++i) {
    auto response = (*service)->PopResponse(5'000'000);
    EXPECT_TRUE(response.has_value());
    if (response) {
      by_id[response->request_id] = std::move(*response);
    }
  }
  (*service)->Stop();
  return by_id;
}

TEST(SamplerPoolDeterminismTest, SampleSetsIdenticalAcrossPoolWidths) {
  CsrGraph graph = TestGraph();
  const auto width1 = RunFleet(graph, 1);
  const auto width2 = RunFleet(graph, 2);
  const auto width4 = RunFleet(graph, 4);
  ASSERT_EQ(width1.size(), 24u);
  ASSERT_EQ(width2.size(), 24u);
  ASSERT_EQ(width4.size(), 24u);
  for (const auto& [id, reference] : width1) {
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
    // The payload is byte-identical whichever pool served it: node sets...
    EXPECT_EQ(width2.at(id).nodes, reference.nodes) << "request " << id;
    EXPECT_EQ(width4.at(id).nodes, reference.nodes) << "request " << id;
    // ...and inference outputs (replica weight stacks, deterministic math).
    EXPECT_EQ(width2.at(id).embeddings.data, reference.embeddings.data) << "request " << id;
    EXPECT_EQ(width4.at(id).embeddings.data, reference.embeddings.data) << "request " << id;
  }
}

TEST(SamplerPoolDeterminismTest, ServeMatchesPooledExecution) {
  CsrGraph graph = TestGraph();
  const auto pooled = RunFleet(graph, 3);
  ServiceOptions options;
  options.num_shards = 4;
  options.partitioner = "hash";
  options.feature_dim = 8;
  options.hidden_dim = 4;
  auto service = GraphService::Create(graph, options);
  ASSERT_TRUE(service.ok());
  for (const auto& [id, reference] : pooled) {
    SampleRequest request;
    request.request_id = id;
    request.shard = static_cast<uint32_t>(id % 4);
    request.num_seeds = 8;
    request.sample = {2, 5, 1000 + id};
    request.run_inference = true;
    SampleResponse response = (*service)->Serve(request);
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.nodes, reference.nodes) << "request " << id;
    EXPECT_EQ(response.embeddings.data, reference.embeddings.data) << "request " << id;
  }
}

}  // namespace
}  // namespace dgcl
