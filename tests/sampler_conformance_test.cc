// Conformance suite over every sampling strategy (SamplerNames()) — the
// serving-side mirror of planner_conformance_test. Every strategy must:
// sample deterministically across runs and sampler-pool widths, honor the
// seed round-trip (same seed same set, new seed new draw), and fail fast with
// kUnavailable when the sample crosses a dead shard. MakeSampler and
// GraphService::Create reject unknown names with an error listing every
// strategy. A new strategy gets all of this by joining MakeSampler.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/ids.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/khop.h"
#include "partition/partitioner.h"
#include "service/sampler.h"
#include "service/service.h"

namespace dgcl {
namespace {

CsrGraph TestGraph() {
  Rng rng(23);
  return GenerateErdosRenyi(300, 2400, rng);
}

struct Shards {
  CsrGraph graph;
  CommRelation relation;  // relation.source[v] is v's shard

  static Shards Make(uint32_t num_shards = 4) {
    Shards s;
    s.graph = TestGraph();
    HashPartitioner partitioner;
    const Partitioning partitioning =
        std::move(partitioner.Partition(s.graph, num_shards)).value();
    s.relation = std::move(BuildCommRelation(s.graph, partitioning)).value();
    return s;
  }
};

class SamplerConformanceTest : public ::testing::TestWithParam<std::string> {};

// ---- primitive contract: valid, sorted, deterministic -----------------------

TEST_P(SamplerConformanceTest, SampleIsSortedDedupedAndContainsSeeds) {
  Shards s = Shards::Make();
  auto sampler = MakeSampler(GetParam(), &s.graph, &s.relation);
  ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();
  std::vector<VertexId> seeds = {5, 42, 42, 250};  // duplicate on purpose
  SampleKHopOptions options{2, 3, 7};
  auto result = (*sampler)->Sample(0, seeds, options, 0xF);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(std::is_sorted(result->nodes.begin(), result->nodes.end()));
  EXPECT_EQ(std::adjacent_find(result->nodes.begin(), result->nodes.end()),
            result->nodes.end());
  for (VertexId seed : seeds) {
    EXPECT_TRUE(std::binary_search(result->nodes.begin(), result->nodes.end(), seed));
  }
  for (VertexId v : result->nodes) {
    EXPECT_LT(v, s.graph.num_vertices());
  }
  EXPECT_EQ((*sampler)->name(), GetParam());
}

TEST_P(SamplerConformanceTest, SeedRoundTrip) {
  Shards s = Shards::Make();
  auto sampler = MakeSampler(GetParam(), &s.graph, &s.relation);
  ASSERT_TRUE(sampler.ok());
  std::vector<VertexId> seeds = {3, 50, 200};
  SampleKHopOptions options{2, 3, 77};
  auto once = (*sampler)->Sample(1, seeds, options, 0xF);
  auto again = (*sampler)->Sample(1, seeds, options, 0xF);
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(once->nodes, again->nodes);
  EXPECT_EQ(once->remote_expansions, again->remote_expansions);
  EXPECT_EQ(once->shards_touched, again->shards_touched);
  // A different seed changes the draw (fanout 3 on an avg-degree-16 graph:
  // an identical sample across seeds is vanishingly unlikely).
  options.seed = 78;
  auto reseeded = (*sampler)->Sample(1, seeds, options, 0xF);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_NE(reseeded->nodes, once->nodes);
}

TEST_P(SamplerConformanceTest, DeadShardFailsFastWithSuspect) {
  Shards s = Shards::Make();
  auto sampler = MakeSampler(GetParam(), &s.graph, &s.relation);
  ASSERT_TRUE(sampler.ok());
  // A seed owned by the dead shard: every strategy must check the owner of
  // a vertex before reading its adjacency, so the failure is immediate.
  const uint32_t dead = 2;
  VertexId seed_on_dead = kInvalidId;
  for (VertexId v = 0; v < s.graph.num_vertices(); ++v) {
    if (s.relation.source[v] == dead && s.graph.Degree(v) > 0) {
      seed_on_dead = v;
      break;
    }
  }
  ASSERT_NE(seed_on_dead, kInvalidId);
  std::vector<VertexId> seeds = {seed_on_dead};
  SampleKHopOptions options{2, 3, 7};
  const DeviceMask alive = 0xF & ~(DeviceMask{1} << dead);
  uint32_t suspect = kInvalidId;
  auto result = (*sampler)->Sample(0, seeds, options, alive, &suspect);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(suspect, dead);
  EXPECT_NE(result.status().message().find("shard 2"), std::string::npos)
      << result.status().message();
}

// ---- service-level: pool width must not matter, per strategy ----------------

std::map<uint64_t, SampleResponse> RunFleet(const CsrGraph& graph, const std::string& strategy,
                                            uint32_t pool_width) {
  ServiceOptions options;
  options.num_shards = 4;
  options.samplers_per_shard = pool_width;
  options.partitioner = "hash";
  options.sampler = strategy;
  options.feature_dim = 8;
  options.hidden_dim = 4;
  auto service = GraphService::Create(graph, options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  (*service)->Start();
  constexpr uint32_t kRequests = 16;
  for (uint32_t i = 0; i < kRequests; ++i) {
    SampleRequest request;
    request.request_id = i;
    request.shard = i % 4;
    request.num_seeds = 8;
    request.sample = {2, 4, 1000 + i};
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

TEST_P(SamplerConformanceTest, SampleSetsIdenticalAcrossPoolWidths) {
  CsrGraph graph = TestGraph();
  const auto width1 = RunFleet(graph, GetParam(), 1);
  const auto width4 = RunFleet(graph, GetParam(), 4);
  ASSERT_EQ(width1.size(), 16u);
  ASSERT_EQ(width4.size(), 16u);
  for (const auto& [id, reference] : width1) {
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
    EXPECT_EQ(width4.at(id).nodes, reference.nodes) << "request " << id;
    EXPECT_EQ(width4.at(id).embeddings.data, reference.embeddings.data) << "request " << id;
  }
}

// ---- MakeSampler / SamplerNames --------------------------------------------

TEST(MakeSamplerTest, BuildsEveryNamedStrategy) {
  Shards s = Shards::Make();
  const std::vector<std::string> names = SamplerNames();
  EXPECT_EQ(names, (std::vector<std::string>{"random-walk", "uniform", "weighted"}));
  for (const std::string& name : names) {
    auto sampler = MakeSampler(name, &s.graph, &s.relation);
    ASSERT_TRUE(sampler.ok()) << name << ": " << sampler.status().ToString();
    EXPECT_EQ((*sampler)->name(), name);
    EXPECT_EQ((*sampler)->span_name(), "serve.sample." + name);
  }
}

TEST(MakeSamplerTest, UnknownNameErrorListsEveryStrategy) {
  Shards s = Shards::Make();
  auto result = MakeSampler("no-such-sampler", &s.graph, &s.relation);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = result.status().message();
  EXPECT_NE(message.find("no-such-sampler"), std::string::npos) << message;
  for (const std::string& name : SamplerNames()) {
    EXPECT_NE(message.find(name), std::string::npos) << message;
  }
}

// ---- service plumbing: the configured strategy serves every request ---------

TEST(ServiceSamplerSelectionTest, UnknownDefaultSamplerFailsCreate) {
  CsrGraph graph = TestGraph();
  ServiceOptions options;
  options.sampler = "does-not-exist";
  auto service = GraphService::Create(graph, options);
  ASSERT_FALSE(service.ok());
  const std::string& message = service.status().message();
  EXPECT_NE(message.find("does-not-exist"), std::string::npos) << message;
  EXPECT_NE(message.find("uniform"), std::string::npos) << message;
}

TEST(ServiceSamplerSelectionTest, ConfiguredSamplerMatchesDirectSampler) {
  Shards s = Shards::Make();
  auto serve = [&](const std::string& sampler) {
    ServiceOptions options;
    options.num_shards = 4;
    options.partitioner = "hash";
    options.sampler = sampler;
    options.feature_dim = 8;
    options.hidden_dim = 4;
    auto service = GraphService::Create(s.graph, options);
    if (!service.ok()) {
      SampleResponse failed;
      failed.status = service.status();
      return failed;
    }
    SampleRequest request;
    request.shard = 1;
    request.seeds = {3, 50, 200};
    request.sample = {2, 3, 77};
    return (*service)->Serve(std::move(request));
  };
  const SampleResponse weighted = serve("weighted");
  ASSERT_TRUE(weighted.status.ok()) << weighted.status.ToString();

  WeightedNeighborSampler direct(&s.graph, &s.relation);
  std::vector<VertexId> seeds = {3, 50, 200};
  auto expected = direct.Sample(1, seeds, SampleKHopOptions{2, 3, 77}, 0xF);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(weighted.nodes, expected->nodes);

  // And the option genuinely selects the strategy: a uniform service draws a
  // different set for the same request.
  const SampleResponse uniform = serve("uniform");
  ASSERT_TRUE(uniform.status.ok());
  EXPECT_NE(uniform.nodes, weighted.nodes);
}

// ---- strategy-specific spot checks ------------------------------------------

TEST(WeightedSamplerTest, KeepsFanoutNeighborsBiasedTowardHubs) {
  CsrGraph graph = TestGraph();
  // Per-vertex draws are valid neighbor subsets, deterministic, fanout-capped.
  for (VertexId v : {0u, 17u, 123u}) {
    const auto once = SampleNeighborsWeighted(graph, v, 5, 42, 1);
    EXPECT_EQ(SampleNeighborsWeighted(graph, v, 5, 42, 1), once);
    EXPECT_LE(once.size(), 5u);
    EXPECT_TRUE(std::is_sorted(once.begin(), once.end()));
    const auto neighbors = graph.Neighbors(v);
    for (VertexId nbr : once) {
      EXPECT_TRUE(std::binary_search(neighbors.begin(), neighbors.end(), nbr));
    }
  }
  // Bias: across many (vertex, seed) draws of 1 neighbor, the picked
  // neighbor's mean degree exceeds the unbiased neighbor mean degree.
  double picked_degree = 0.0;
  double neighbor_degree = 0.0;
  uint64_t picked = 0;
  uint64_t neighbors_total = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.Degree(v) < 2) {
      continue;
    }
    for (uint64_t seed = 0; seed < 4; ++seed) {
      const auto pick = SampleNeighborsWeighted(graph, v, 1, seed, 1);
      ASSERT_EQ(pick.size(), 1u);
      picked_degree += graph.Degree(pick[0]);
      ++picked;
    }
    for (VertexId nbr : graph.Neighbors(v)) {
      neighbor_degree += graph.Degree(nbr);
      ++neighbors_total;
    }
  }
  ASSERT_GT(picked, 0u);
  ASSERT_GT(neighbors_total, 0u);
  EXPECT_GT(picked_degree / picked, neighbor_degree / neighbors_total);
}

TEST(RandomWalkSamplerTest, WalksAreEdgesAndStopAtDeadEnds) {
  CsrGraph graph = TestGraph();
  for (VertexId start : {0u, 50u, 299u}) {
    const auto path = SampleRandomWalk(graph, start, 6, 42, 0);
    ASSERT_GE(path.size(), 1u);
    EXPECT_EQ(path[0], start);
    EXPECT_LE(path.size(), 7u);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const auto neighbors = graph.Neighbors(path[i]);
      EXPECT_TRUE(std::binary_search(neighbors.begin(), neighbors.end(), path[i + 1]));
    }
    if (path.size() < 7u) {
      EXPECT_EQ(graph.Degree(path.back()), 0u);  // stopped only at a dead end
    }
    EXPECT_EQ(SampleRandomWalk(graph, start, 6, 42, 0), path);
    // Walk index is part of the key: walk 1 from the same start diverges.
    if (graph.Degree(start) > 4) {
      EXPECT_NE(SampleRandomWalk(graph, start, 6, 42, 1), path);
    }
  }
}

TEST(RandomWalkSamplerTest, SampledSetIsUnionOfWalkVisits) {
  Shards s = Shards::Make();
  RandomWalkSampler sampler(&s.graph, &s.relation);
  std::vector<VertexId> seeds = {3, 50};
  SampleKHopOptions options{4, 3, 99};  // 3 walks of 4 steps per seed
  auto result = sampler.Sample(0, seeds, options, 0xF);
  ASSERT_TRUE(result.ok());
  std::set<VertexId> expected;
  for (VertexId start : seeds) {
    for (uint32_t walk = 0; walk < options.fanout; ++walk) {
      for (VertexId v : SampleRandomWalk(s.graph, start, options.hops, options.seed, walk)) {
        expected.insert(v);
      }
    }
  }
  EXPECT_EQ(result->nodes, std::vector<VertexId>(expected.begin(), expected.end()));
}

std::string SafeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string out = info.param;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SamplerConformanceTest,
                         ::testing::ValuesIn(SamplerNames()), SafeName);

}  // namespace
}  // namespace dgcl
