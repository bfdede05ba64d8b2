// Graph service tier: the ownership record, the LRU feature cache against a
// reference model, queue backpressure, per-request cache counters and the
// shard-death failure contract.

#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <list>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "common/ids.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/khop.h"
#include "service/feature_cache.h"
#include "service/request_queue.h"
#include "telemetry/trace.h"

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

// ---- ownership: the communication relation is the shard map ---------------

TEST(GraphServiceTest, RelationRecordsEveryVertexOwner) {
  CsrGraph graph = TestGraph();
  auto service = GraphService::Create(graph, SmallOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(&(*service)->graph(), &graph);
  const CommRelation& relation = (*service)->relation();
  ASSERT_EQ(relation.num_devices, 4u);
  ASSERT_EQ(relation.source.size(), graph.num_vertices());
  size_t total = 0;
  for (uint32_t s = 0; s < relation.num_devices; ++s) {
    const std::vector<VertexId>& locals = relation.local_vertices[s];
    EXPECT_TRUE(std::is_sorted(locals.begin(), locals.end()));
    for (VertexId v : locals) {
      EXPECT_EQ(relation.source[v], s);
    }
    total += locals.size();
  }
  EXPECT_EQ(total, graph.num_vertices());
}

// ---- LRU feature cache -----------------------------------------------------

constexpr uint32_t kRowDim = 3;

// Row bytes that name both the vertex and the insert that wrote them, so a
// stale or torn row cannot compare equal.
std::vector<float> RowOf(VertexId v, uint32_t version = 0) {
  std::vector<float> row(kRowDim);
  for (uint32_t j = 0; j < kRowDim; ++j) {
    row[j] = static_cast<float>(v) * 1000.0f + static_cast<float>(version) + 0.25f * j;
  }
  return row;
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  FeatureCache cache(2, kRowDim);
  std::vector<float> row(kRowDim);
  EXPECT_FALSE(cache.Insert(1, RowOf(1).data()));
  EXPECT_FALSE(cache.Insert(2, RowOf(2).data()));
  ASSERT_TRUE(cache.Lookup(1, row.data()));  // 1 becomes most recent
  EXPECT_TRUE(cache.Insert(3, RowOf(3).data()));  // evicts 2
  EXPECT_TRUE(cache.Lookup(1, row.data()));
  EXPECT_EQ(row, RowOf(1));
  EXPECT_FALSE(cache.Lookup(2, row.data()));
  EXPECT_TRUE(cache.Lookup(3, row.data()));
  EXPECT_EQ(row, RowOf(3));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, HugeCapacityAllocatesOnlyWhatArrives) {
  // An options-sized capacity is a bound, not a reservation.
  FeatureCache cache(~size_t{0}, kRowDim);
  EXPECT_EQ(cache.capacity(), ~size_t{0});
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_FALSE(cache.Insert(v, RowOf(v).data()));
  }
  EXPECT_EQ(cache.size(), 100u);
  std::vector<float> row(kRowDim);
  ASSERT_TRUE(cache.Lookup(0, row.data()));
  EXPECT_EQ(row, RowOf(0));
}

// A seeded random Lookup/Insert sequence against a std::list LRU. After
// every step the hits, misses, evictions, resident set and row bytes must
// match the model's.
TEST(LruCacheTest, MatchesReferenceModel) {
  constexpr VertexId kKeys = 12;
  for (const size_t capacity : {size_t{1}, size_t{2}, size_t{7}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    FeatureCache cache(capacity, kRowDim);
    // Front = most recent.
    std::list<std::pair<VertexId, std::vector<float>>> model;
    FeatureCache::Stats expected;
    auto find = [&](VertexId v) {
      return std::find_if(model.begin(), model.end(),
                          [v](const auto& entry) { return entry.first == v; });
    };
    // Looks v up in both and compares; a hit moves v to the front of both.
    auto lookup = [&](VertexId v) {
      std::vector<float> row(kRowDim, -1.0f);
      const bool hit = cache.Lookup(v, row.data());
      const auto it = find(v);
      EXPECT_EQ(hit, it != model.end()) << "vertex " << v;
      if (it == model.end()) {
        ++expected.misses;
        EXPECT_EQ(row, std::vector<float>(kRowDim, -1.0f)) << "a miss wrote the row";
        return;
      }
      ++expected.hits;
      EXPECT_EQ(row, it->second) << "vertex " << v;
      model.splice(model.begin(), model, it);
    };
    Rng rng(capacity * 101 + 7);
    for (uint32_t step = 0; step < 400; ++step) {
      const VertexId v = static_cast<VertexId>(rng.UniformInt(kKeys));
      if (rng.UniformInt(2) == 0) {
        lookup(v);
      } else {
        const std::vector<float> row = RowOf(v, step);
        const bool evicted = cache.Insert(v, row.data());
        bool model_evicted = false;
        if (const auto it = find(v); it != model.end()) {
          model.erase(it);
        } else if (model.size() == capacity) {
          model.pop_back();
          model_evicted = true;
          ++expected.evictions;
        }
        model.emplace_front(v, row);
        EXPECT_EQ(evicted, model_evicted) << "step " << step;
      }
      // Resident set and row bytes: every absent key misses, and every
      // resident key hits with its row. Probing residents from least to
      // most recent leaves the recency order as it was.
      ASSERT_EQ(cache.size(), model.size()) << "step " << step;
      for (VertexId k = 0; k < kKeys; ++k) {
        if (find(k) == model.end()) {
          lookup(k);
        }
      }
      std::vector<VertexId> residents;
      for (auto it = model.rbegin(); it != model.rend(); ++it) {
        residents.push_back(it->first);
      }
      for (const VertexId k : residents) {
        lookup(k);
      }
      const FeatureCache::Stats stats = cache.stats();
      ASSERT_EQ(stats.hits, expected.hits) << "step " << step;
      ASSERT_EQ(stats.misses, expected.misses) << "step " << step;
      ASSERT_EQ(stats.evictions, expected.evictions) << "step " << step;
    }
    EXPECT_GT(expected.evictions, 0u);
    EXPECT_DOUBLE_EQ(cache.stats().HitRate(), expected.HitRate());
  }
}

TEST(LruCacheTest, ConcurrentLookupInsertStaysBoundedAndCounted) {
  constexpr size_t kCapacity = 16;
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kOps = 5000;
  FeatureCache cache(kCapacity, kRowDim);
  std::atomic<uint64_t> lookups{0};
  std::atomic<bool> bad_row{false};
  std::atomic<bool> over_capacity{false};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      std::vector<float> row(kRowDim);
      for (uint32_t op = 0; op < kOps; ++op) {
        const VertexId v = static_cast<VertexId>(rng.UniformInt(48));
        if (rng.UniformInt(2) == 0) {
          lookups.fetch_add(1, std::memory_order_relaxed);
          if (cache.Lookup(v, row.data()) && row != RowOf(v)) {
            bad_row.store(true);
          }
        } else {
          cache.Insert(v, RowOf(v).data());
        }
        if (cache.size() > kCapacity) {
          over_capacity.store(true);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(bad_row.load());
  EXPECT_FALSE(over_capacity.load());
  EXPECT_LE(cache.size(), kCapacity);
  const FeatureCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
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

// The cache's trace counters are one event per request carrying that
// request's totals, so with a ring that drops nothing they sum to exactly
// the cache's own stats.
TEST(GraphServiceTest, CacheCountersInTraceEqualCacheStats) {
  if (!DGCL_TELEMETRY_ENABLED) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  using telemetry::Telemetry;
  Telemetry& telem = Telemetry::Get();
  const bool was_enabled = Telemetry::Enabled();
  const size_t old_capacity = telem.recorder_capacity();
  telem.Reset();
  telem.SetRecorderCapacity(1 << 16);
  telem.SetEnabled(true);

  CsrGraph graph = TestGraph();
  ServiceOptions options = SmallOptions();
  options.cache_capacity_rows = 16;  // well under the remote set: evictions happen
  auto service = GraphService::Create(graph, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  constexpr uint32_t kRequests = 40;
  for (uint32_t i = 0; i < kRequests; ++i) {
    SampleRequest request;
    request.request_id = i;
    request.shard = i % options.num_shards;
    request.num_seeds = 4;
    request.sample = {2, 4, 100 + i % 10};  // repeats, so some rows hit
    ASSERT_TRUE((*service)->Serve(request).status.ok());
  }
  const telemetry::Trace trace = telem.Collect();
  telem.SetEnabled(was_enabled);
  telem.Reset();
  telem.SetRecorderCapacity(old_capacity);

  EXPECT_EQ(trace.dropped_events, 0u);
  std::map<std::string, double> totals;
  std::map<std::string, uint64_t> events;
  for (const telemetry::TraceEvent& ev : trace.events) {
    if (ev.category == "service" && ev.kind == telemetry::TraceEventKind::kCounter) {
      totals[ev.name] += ev.value;
      ++events[ev.name];
    }
  }
  const FeatureCache::Stats stats = (*service)->cache().stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(totals["cache.hit"], static_cast<double>(stats.hits));
  EXPECT_EQ(totals["cache.miss"], static_cast<double>(stats.misses));
  EXPECT_EQ(totals["cache.evict"], static_cast<double>(stats.evictions));
  // At most one event of each per request, not one per lookup.
  EXPECT_LE(events["cache.hit"], kRequests);
  EXPECT_LE(events["cache.miss"], kRequests);
  EXPECT_LE(events["cache.evict"], kRequests);
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
  options.cache_policy = "lfu";  // LRU is the only policy
  EXPECT_FALSE(GraphService::Create(graph, options).ok());
  options = ServiceOptions();
  options.partitioner = "metis";
  EXPECT_FALSE(GraphService::Create(graph, options).ok());
}

}  // namespace
}  // namespace dgcl
