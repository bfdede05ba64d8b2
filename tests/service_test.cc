// Graph service tier: shard resolution, cache eviction conformance, queue
// backpressure and the shard-death failure contract.

#include "service/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "common/ids.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/khop.h"
#include "service/feature_cache.h"
#include "service/graph_shard.h"
#include "service/request_queue.h"

namespace dgcl {
namespace {

CsrGraph TestGraph(VertexId n = 200, EdgeIndex edges = 1200, uint64_t seed = 11) {
  Rng rng(seed);
  return GenerateErdosRenyi(n, edges, rng);
}

ServiceOptions SmallOptions(uint32_t shards = 4) {
  ServiceOptions options;
  options.num_shards = shards;
  options.samplers_per_shard = 2;
  options.partitioner = "hash";  // every shard owns vertices everywhere: samples cross shards
  options.cache_capacity_rows = 64;
  options.feature_dim = 8;
  options.hidden_dim = 4;
  options.request_deadline_micros = 500'000;
  return options;
}

// ---- sharded store ---------------------------------------------------------

TEST(GraphShardTest, ResolutionRoundTrips) {
  CsrGraph graph = TestGraph();
  HashPartitioner partitioner;
  Partitioning partitioning = std::move(partitioner.Partition(graph, 4)).value();
  auto store = ShardedGraphStore::Build(graph, partitioning);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  uint32_t total = 0;
  for (uint32_t s = 0; s < store->num_shards(); ++s) {
    const GraphShard& shard = store->shard(s);
    total += shard.num_local();
    for (uint32_t rank = 0; rank < shard.num_local(); ++rank) {
      const VertexId v = shard.GlobalOf(rank);
      EXPECT_EQ(shard.LocalRank(v), rank);
      EXPECT_TRUE(shard.Owns(v));
      EXPECT_EQ(store->OwnerOf(v), s);
      const auto resolved = store->Resolve(v);
      EXPECT_EQ(resolved.shard, s);
      EXPECT_EQ(resolved.local, rank);
    }
  }
  EXPECT_EQ(total, graph.num_vertices());
}

TEST(GraphShardTest, ForeignAndOutOfRangeIdsResolveInvalid) {
  CsrGraph graph = TestGraph();
  HashPartitioner partitioner;
  Partitioning partitioning = std::move(partitioner.Partition(graph, 4)).value();
  auto store = ShardedGraphStore::Build(graph, partitioning);
  ASSERT_TRUE(store.ok());

  // Hash partitioning: vertex 1 belongs to shard 1, so shard 0 must not own it.
  EXPECT_EQ(store->shard(0).LocalRank(1), kInvalidId);
  EXPECT_FALSE(store->shard(0).Owns(1));
  const auto resolved = store->Resolve(graph.num_vertices() + 7);
  EXPECT_EQ(resolved.shard, kInvalidId);
  EXPECT_EQ(resolved.local, kInvalidId);
}

TEST(GraphShardTest, BuildRejectsNonCoveringPartitioning) {
  CsrGraph graph = TestGraph(10, 20);
  Partitioning bad;
  bad.num_parts = 2;
  bad.assignment.assign(10, 0);
  bad.assignment[3] = 9;  // out of range part
  EXPECT_FALSE(ShardedGraphStore::Build(graph, bad).ok());
}

TEST(GraphShardTest, RemoteEdgeCountMatchesBruteForce) {
  CsrGraph graph = TestGraph();
  HashPartitioner partitioner;
  Partitioning partitioning = std::move(partitioner.Partition(graph, 3)).value();
  auto store = ShardedGraphStore::Build(graph, partitioning);
  ASSERT_TRUE(store.ok());
  for (uint32_t s = 0; s < 3; ++s) {
    uint64_t expected = 0;
    for (VertexId v : store->shard(s).local_vertices()) {
      for (VertexId nbr : graph.Neighbors(v)) {
        expected += partitioning.assignment[nbr] != s ? 1 : 0;
      }
    }
    EXPECT_EQ(store->shard(s).CountRemoteEdges(partitioning), expected);
  }
}

// ---- eviction conformance --------------------------------------------------

std::vector<float> RowOf(float x) { return {x, x}; }

// The contract every policy must satisfy: bounded size, victims are resident,
// hits refresh, stats add up.
class EvictionConformanceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EvictionConformanceTest, BoundedSizeAndCountedStats) {
  auto policy = MakeEvictionPolicy(GetParam());
  ASSERT_TRUE(policy.ok());
  FeatureCache cache(4, std::move(*policy));
  std::vector<float> row;
  for (VertexId v = 0; v < 32; ++v) {
    EXPECT_FALSE(cache.Lookup(v, row));
    cache.Insert(v, RowOf(static_cast<float>(v)));
    EXPECT_LE(cache.size(), 4u);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 32u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 32u - 4u);
  // The four youngest inserts are resident under both LRU and LFU (all
  // frequencies equal => FIFO tie-break == recency order here).
  for (VertexId v = 28; v < 32; ++v) {
    EXPECT_TRUE(cache.Lookup(v, row)) << GetParam() << " evicted resident key " << v;
    EXPECT_EQ(row, RowOf(static_cast<float>(v)));
  }
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 4.0 / 36.0);
}

TEST_P(EvictionConformanceTest, ReinsertRefreshesInsteadOfDuplicating) {
  auto policy = MakeEvictionPolicy(GetParam());
  ASSERT_TRUE(policy.ok());
  FeatureCache cache(2, std::move(*policy));
  cache.Insert(1, RowOf(1));
  cache.Insert(1, RowOf(10));
  EXPECT_EQ(cache.size(), 1u);
  std::vector<float> row;
  ASSERT_TRUE(cache.Lookup(1, row));
  EXPECT_EQ(row, RowOf(10));
}

INSTANTIATE_TEST_SUITE_P(Policies, EvictionConformanceTest, ::testing::Values("lru", "lfu"));

TEST(EvictionPolicyTest, LruEvictsLeastRecentlyUsed) {
  FeatureCache cache(2, std::make_unique<LruPolicy>());
  std::vector<float> row;
  cache.Insert(1, RowOf(1));
  cache.Insert(2, RowOf(2));
  ASSERT_TRUE(cache.Lookup(1, row));  // 1 becomes most recent
  cache.Insert(3, RowOf(3));          // evicts 2
  EXPECT_TRUE(cache.Lookup(1, row));
  EXPECT_FALSE(cache.Lookup(2, row));
  EXPECT_TRUE(cache.Lookup(3, row));
}

TEST(EvictionPolicyTest, LfuEvictsLeastFrequentlyUsedWithFifoTieBreak) {
  FeatureCache cache(2, std::make_unique<LfuPolicy>());
  std::vector<float> row;
  cache.Insert(1, RowOf(1));
  cache.Insert(2, RowOf(2));
  ASSERT_TRUE(cache.Lookup(2, row));  // 2's frequency 1, 1's frequency 0
  cache.Insert(3, RowOf(3));          // evicts 1 (lowest frequency)
  EXPECT_FALSE(cache.Lookup(1, row));
  EXPECT_TRUE(cache.Lookup(2, row));
  // 2:freq=2, 3:freq=1. Insert 4: evicts 3.
  cache.Insert(4, RowOf(4));
  EXPECT_FALSE(cache.Lookup(3, row));
  // Tie-break: rebuild with equal frequencies; the oldest insertion goes.
  FeatureCache tie(2, std::make_unique<LfuPolicy>());
  tie.Insert(7, RowOf(7));
  tie.Insert(8, RowOf(8));
  tie.Insert(9, RowOf(9));  // 7 and 8 tied at frequency 0: 7 is older
  EXPECT_FALSE(tie.Lookup(7, row));
  EXPECT_TRUE(tie.Lookup(8, row));
}

TEST(EvictionPolicyTest, DivergeOnScanAfterHotSet) {
  // The workload that separates the two: a hot key accessed often, then a
  // scan of cold keys. LRU forgets the hot key; LFU keeps it.
  auto run = [](std::unique_ptr<EvictionPolicy> policy) {
    FeatureCache cache(2, std::move(policy));
    std::vector<float> row;
    cache.Insert(100, RowOf(100));
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(cache.Lookup(100, row));
    }
    cache.Insert(1, RowOf(1));
    cache.Insert(2, RowOf(2));
    cache.Insert(3, RowOf(3));
    return cache.Lookup(100, row);
  };
  EXPECT_FALSE(run(std::make_unique<LruPolicy>()));
  EXPECT_TRUE(run(std::make_unique<LfuPolicy>()));
}

TEST(EvictionPolicyTest, UnknownPolicyNameFails) {
  EXPECT_FALSE(MakeEvictionPolicy("arc").ok());
}

// ---- bounded queue ---------------------------------------------------------

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.Pop(0).value(), 1);
  EXPECT_TRUE(queue.TryPush(3));
}

TEST(BoundedQueueTest, PushTimesOutOnFullQueue) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.Push(2, 20'000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(15));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(BoundedQueueTest, CloseDrainsPendingThenReturnsNullopt) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.Pop(0).value(), 1);
  EXPECT_EQ(queue.Pop(0).value(), 2);
  EXPECT_EQ(queue.Pop(0), std::nullopt);
}

TEST(BoundedQueueTest, CloseWakesBlockedPopper) {
  BoundedQueue<int> queue(1);
  std::thread popper([&] {
    // Far longer than the test may take: only Close can end this wait early.
    EXPECT_EQ(queue.Pop(30'000'000), std::nullopt);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  popper.join();
}

TEST(ServiceBackpressureTest, SubmitShedsWhenQueueFull) {
  CsrGraph graph = TestGraph();
  ServiceOptions options = SmallOptions(2);
  options.request_queue_capacity = 3;
  auto service = GraphService::Create(graph, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // No Start(): nothing drains the queues, so capacity is exact.
  for (uint32_t i = 0; i < 3; ++i) {
    SampleRequest request;
    request.shard = 0;
    EXPECT_TRUE((*service)->Submit(std::move(request)).ok()) << i;
  }
  SampleRequest overflow;
  overflow.shard = 0;
  Status status = (*service)->Submit(std::move(overflow));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // The other shard's queue is independent.
  SampleRequest other;
  other.shard = 1;
  EXPECT_TRUE((*service)->Submit(std::move(other)).ok());
  const ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.shed, 1u);
}

// ---- end-to-end serving ----------------------------------------------------

TEST(GraphServiceTest, ServeReturnsSampleAndFeaturesAndEmbeddings) {
  CsrGraph graph = TestGraph();
  auto service = GraphService::Create(graph, SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  SampleRequest request;
  request.shard = 1;
  request.seeds = {1, 5, 9};
  request.sample = {2, 4, 123};
  request.run_inference = true;
  SampleResponse response = (*service)->Serve(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  // The sampled set equals the single-machine sampler's (all shards alive).
  std::vector<VertexId> expected = SampleKHop(graph, request.seeds, request.sample);
  EXPECT_EQ(response.nodes, expected);
  // Hash partitioning on 4 shards: a multi-vertex sample crosses shards.
  EXPECT_GT(response.remote_rows, 0u);
  EXPECT_EQ(response.cache_hits + response.cache_misses, response.remote_rows);
  EXPECT_EQ(response.embeddings.rows, response.nodes.size());
  EXPECT_EQ(response.embeddings.dim, (*service)->options().hidden_dim);

  // Same request again: everything remote now hits the cache.
  SampleResponse again = (*service)->Serve(request);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.nodes, response.nodes);
  EXPECT_EQ(again.cache_misses, 0u);
  EXPECT_EQ(again.cache_hits, again.remote_rows);
  EXPECT_EQ(again.embeddings.data, response.embeddings.data);
}

TEST(GraphServiceTest, SubmitPopRoundTrip) {
  CsrGraph graph = TestGraph();
  auto service = GraphService::Create(graph, SmallOptions());
  ASSERT_TRUE(service.ok());
  (*service)->Start();
  for (uint32_t i = 0; i < 8; ++i) {
    SampleRequest request;
    request.request_id = i;
    request.shard = i % 4;
    request.num_seeds = 4;
    request.sample.seed = i;
    ASSERT_TRUE((*service)->Submit(std::move(request)).ok());
  }
  std::set<uint64_t> seen;
  for (uint32_t i = 0; i < 8; ++i) {
    auto response = (*service)->PopResponse(2'000'000);
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->status.ok()) << response->status.ToString();
    EXPECT_FALSE(response->nodes.empty());
    EXPECT_GT(response->latency_seconds, 0.0);
    seen.insert(response->request_id);
  }
  EXPECT_EQ(seen.size(), 8u);
  (*service)->Stop();
  const ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.responses_dropped, 0u);
}

// ---- shard death -----------------------------------------------------------

TEST(ShardDeathTest, KilledShardFailsFastWithSuspect) {
  CsrGraph graph = TestGraph();
  ServiceOptions options = SmallOptions();
  auto service = GraphService::Create(graph, options);
  ASSERT_TRUE(service.ok());

  // Queue a few requests on the victim before any worker runs, then kill it:
  // every one must come back kUnavailable naming the shard, within one
  // deadline, never a hang.
  for (uint32_t i = 0; i < 4; ++i) {
    SampleRequest request;
    request.request_id = 100 + i;
    request.shard = 2;
    ASSERT_TRUE((*service)->Submit(std::move(request)).ok());
  }
  ASSERT_TRUE((*service)->KillShard(2).ok());
  EXPECT_FALSE((*service)->membership().IsAlive(2));
  EXPECT_EQ((*service)->membership().epoch, 1u);
  (*service)->Start();

  // Submits after the kill are accepted and also fail asynchronously.
  SampleRequest late;
  late.request_id = 200;
  late.shard = 2;
  ASSERT_TRUE((*service)->Submit(std::move(late)).ok());

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(2 * options.request_deadline_micros);
  uint32_t unavailable = 0;
  while (unavailable < 5 && std::chrono::steady_clock::now() < deadline) {
    auto response = (*service)->PopResponse(options.request_deadline_micros);
    if (!response) {
      continue;
    }
    if (response->shard != 2) {
      continue;  // unrelated traffic
    }
    EXPECT_EQ(response->status.code(), StatusCode::kUnavailable)
        << response->status.ToString();
    ASSERT_FALSE(response->suspects.empty());
    EXPECT_EQ(response->suspects[0], 2u);
    ++unavailable;
  }
  EXPECT_EQ(unavailable, 5u) << "kUnavailable responses must arrive within one deadline";
  (*service)->Stop();
}

TEST(ShardDeathTest, SamplingAcrossDeadShardNamesItAsSuspect) {
  CsrGraph graph = TestGraph();
  auto service = GraphService::Create(graph, SmallOptions());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->KillShard(3).ok());

  // Home shard 0 is alive, but a 2-hop sample over a hash partitioning
  // expands vertices owned by shard 3.
  SampleRequest request;
  request.shard = 0;
  request.num_seeds = 16;
  request.sample = {2, 10, 9};
  SampleResponse response = (*service)->Serve(request);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  ASSERT_FALSE(response.suspects.empty());
  EXPECT_EQ(response.suspects[0], 3u);
}

TEST(ShardDeathTest, KillValidation) {
  CsrGraph graph = TestGraph();
  auto service = GraphService::Create(graph, SmallOptions(2));
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->KillShard(9).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE((*service)->KillShard(0).ok());
  EXPECT_FALSE((*service)->KillShard(0).ok());  // already dead
  EXPECT_FALSE((*service)->KillShard(1).ok());  // last shard standing
  EXPECT_TRUE((*service)->membership().IsAlive(1));
}

// ---- options ---------------------------------------------------------------

TEST(ServiceOptionsTest, ValidateRejectsBadKnobs) {
  CsrGraph graph = TestGraph(20, 40);
  ServiceOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(GraphService::Create(graph, options).ok());
  options = ServiceOptions();
  options.num_shards = 17;
  EXPECT_FALSE(GraphService::Create(graph, options).ok());
  options = ServiceOptions();
  options.cache_policy = "mru";
  EXPECT_FALSE(GraphService::Create(graph, options).ok());
  options = ServiceOptions();
  options.partitioner = "metis";
  EXPECT_FALSE(GraphService::Create(graph, options).ok());
}

}  // namespace
}  // namespace dgcl
