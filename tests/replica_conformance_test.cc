// Replica conformance: the byte-identity contract of the replica tier.
//
// Replication may change latency, liveness, and routing — never bytes. These
// tests pin that: for every (replicas, pool width) config the async serving
// path returns responses byte-identical to the R=1 baseline with
// exactly-once delivery; mini-batch training converges to bitwise-equal
// weights whatever the replication; ReplicaSet round-robin routing behaves
// as documented; and replica death fails over (counted) until the LAST
// replica dies, at which point requests complete kUnavailable naming the
// shard.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "service/minibatch_trainer.h"
#include "service/replica_set.h"
#include "service/service.h"

namespace dgcl {
namespace {

CsrGraph TestGraph(VertexId n = 200, EdgeIndex edges = 1200, uint64_t seed = 11) {
  Rng rng(seed);
  return GenerateErdosRenyi(n, edges, rng);
}

ServiceOptions BaseOptions(uint32_t replicas, uint32_t samplers_per_shard) {
  ServiceOptions options;
  options.num_shards = 4;
  options.samplers_per_shard = samplers_per_shard;
  options.replication.replicas = replicas;
  options.partitioner = "hash";  // samples cross shards: remote fetches happen
  options.cache_capacity_rows = 64;
  options.feature_dim = 8;
  options.hidden_dim = 4;
  options.request_deadline_micros = 2'000'000;
  return options;
}

std::vector<SampleRequest> RequestMix(uint32_t count) {
  std::vector<SampleRequest> requests;
  requests.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SampleRequest request;
    request.request_id = i;
    request.shard = i % 4;
    request.num_seeds = 8;
    request.sample = {2, 4, 4000 + i};
    request.return_features = true;
    request.run_inference = (i % 3) == 0;
    requests.push_back(std::move(request));
  }
  return requests;
}

// Runs the mix through the async path and returns responses keyed by
// request id, asserting exactly-once delivery along the way.
std::map<uint64_t, SampleResponse> RunAsync(GraphService& service,
                                            const std::vector<SampleRequest>& requests) {
  service.Start();
  for (const SampleRequest& request : requests) {
    SampleRequest copy = request;
    EXPECT_TRUE(service.Submit(std::move(copy)).ok());
  }
  std::map<uint64_t, SampleResponse> by_id;
  for (size_t i = 0; i < requests.size(); ++i) {
    std::optional<SampleResponse> response = service.PopResponse(5'000'000);
    EXPECT_TRUE(response.has_value()) << "response " << i << " never arrived";
    if (!response) {
      break;
    }
    // Exactly-once: no request id may be answered twice.
    EXPECT_EQ(by_id.count(response->request_id), 0u)
        << "request " << response->request_id << " answered twice";
    by_id.emplace(response->request_id, std::move(*response));
  }
  service.Stop();
  return by_id;
}

// ---- byte identity across (replicas, pool width) ---------------------------

using ReplicaConfig = std::tuple<uint32_t, uint32_t>;

class ReplicaConformanceTest : public ::testing::TestWithParam<ReplicaConfig> {};

TEST_P(ReplicaConformanceTest, ResponsesByteIdenticalToR1Baseline) {
  const auto [replicas, pool] = GetParam();
  CsrGraph graph = TestGraph();
  const std::vector<SampleRequest> requests = RequestMix(32);

  // Baseline: the pre-replica configuration (R=1, one sampler per shard).
  auto baseline = GraphService::Create(graph, BaseOptions(1, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::map<uint64_t, SampleResponse> expected = RunAsync(**baseline, requests);
  ASSERT_EQ(expected.size(), requests.size());

  auto service = GraphService::Create(graph, BaseOptions(replicas, pool));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::map<uint64_t, SampleResponse> got = RunAsync(**service, requests);
  ASSERT_EQ(got.size(), requests.size());

  for (const SampleRequest& request : requests) {
    const SampleResponse& want = expected.at(request.request_id);
    const SampleResponse& have = got.at(request.request_id);
    ASSERT_TRUE(want.status.ok()) << want.status.ToString();
    ASSERT_TRUE(have.status.ok()) << have.status.ToString();
    EXPECT_EQ(have.nodes, want.nodes) << "request " << request.request_id;
    EXPECT_EQ(have.features.data, want.features.data) << "request " << request.request_id;
    EXPECT_EQ(have.embeddings.data, want.embeddings.data) << "request " << request.request_id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ReplicaConformanceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u), ::testing::Values(1u, 3u)),
    [](const ::testing::TestParamInfo<ReplicaConfig>& info) {
      return "R" + std::to_string(std::get<0>(info.param)) + "_pool" +
             std::to_string(std::get<1>(info.param));
    });

// ---- trained weights are replication-invariant ------------------------------

// The trainer_test community fixture: labels = community ids, features
// noisy-one-hot correlated with the label.
struct World {
  CsrGraph graph;
  EmbeddingMatrix features;
  std::vector<uint32_t> labels;

  static World Make(uint64_t seed) {
    World w;
    Rng rng(seed);
    w.graph = GenerateCommunityGraph(160, 4, 10.0, 0.5, rng);
    w.features = EmbeddingMatrix::Zero(160, 8);
    w.labels.resize(160);
    for (VertexId v = 0; v < 160; ++v) {
      const uint32_t community = std::min<uint32_t>(v / 40, 3);
      w.labels[v] = community;
      for (uint32_t c = 0; c < 8; ++c) {
        w.features.Row(v)[c] = rng.UniformFloat(-0.3f, 0.3f);
      }
      w.features.Row(v)[community] += 1.0f;
    }
    return w;
  }
};

ReplicaWeights TrainThreeEpochs(World& w, uint32_t replicas) {
  ServiceOptions options = BaseOptions(replicas, 2);
  auto service = GraphService::Create(w.graph, options, &w.features);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  MiniBatchTrainerOptions train;
  train.trainer.hidden_dim = 16;
  train.trainer.learning_rate = 0.3f;
  train.batch_seeds = 24;
  train.batches_per_epoch = 8;
  train.sample = {2, 6, 0x5eed};
  auto trainer = MiniBatchTrainer::Create(service->get(), w.labels, 4, train);
  EXPECT_TRUE(trainer.ok()) << trainer.status().ToString();
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto result = (*trainer)->TrainEpoch();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  return (*trainer)->checkpoint();
}

void ExpectSameWeights(const ReplicaWeights& a, const ReplicaWeights& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t l = 0; l < a.layers.size(); ++l) {
    ASSERT_EQ(a.layers[l].size(), b.layers[l].size());
    for (size_t p = 0; p < a.layers[l].size(); ++p) {
      EXPECT_EQ(a.layers[l][p].data, b.layers[l][p].data) << "layer " << l << " param " << p;
    }
  }
  EXPECT_EQ(a.head.data, b.head.data);
}

TEST(ReplicaTrainingConformanceTest, TrainedWeightsBitwiseEqualAcrossReplication) {
  World w = World::Make(41);
  const ReplicaWeights baseline = TrainThreeEpochs(w, 1);
  ExpectSameWeights(TrainThreeEpochs(w, 2), baseline);
  ExpectSameWeights(TrainThreeEpochs(w, 3), baseline);
}

// ---- routing behavior (ReplicaSet directly) ---------------------------------

std::unique_ptr<ReplicaSet> RoutingSet(uint32_t replicas, uint32_t shards = 2) {
  ReplicationOptions options;
  options.replicas = replicas;
  return std::move(ReplicaSet::Build(shards, options)).value();
}

TEST(ReplicaSetTest, RoundRobinSpreadsOverAliveReplicas) {
  auto set = RoutingSet(3);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(set->Route(0).ok());
  }
  const ReplicaSet::Stats stats = set->stats();
  EXPECT_EQ(stats.routed[0], 3u);
  EXPECT_EQ(stats.routed[1], 3u);
  EXPECT_EQ(stats.routed[2], 3u);
}

TEST(ReplicaSetTest, MembershipEpochsAndLastReplicaDeath) {
  auto set = RoutingSet(2);
  EXPECT_EQ(set->membership_view().epoch, 0u);
  EXPECT_EQ(set->stats().replica_kills, 0u);

  // Replica death counts a replica kill, not a device epoch.
  ASSERT_TRUE(set->KillReplica(0, 0).ok());
  EXPECT_EQ(set->stats().replica_kills, 1u);
  EXPECT_EQ(set->membership_view().epoch, 0u);
  EXPECT_TRUE(set->ShardAlive(0));
  EXPECT_FALSE(set->KillReplica(0, 0).ok());  // already dead

  // Last-replica death commits the device-level epoch.
  ASSERT_TRUE(set->KillReplica(0, 1).ok());
  EXPECT_FALSE(set->ShardAlive(0));
  EXPECT_EQ(set->membership_view().epoch, 1u);
  EXPECT_FALSE(set->membership_view().IsAlive(0));
  EXPECT_FALSE(set->Route(0).ok());
  EXPECT_EQ(set->membership_view().epoch, 1u);

  // The last replica of the last alive shard is protected.
  ASSERT_TRUE(set->KillReplica(1, 0).ok());
  EXPECT_FALSE(set->KillReplica(1, 1).ok());
  EXPECT_TRUE(set->ShardAlive(1));
}

// ---- service-level failover and last-replica suspect naming -----------------

TEST(ReplicaFailoverTest, QueuedRequestsFailOverAndAreCounted) {
  CsrGraph graph = TestGraph();
  ServiceOptions options = BaseOptions(2, 2);
  auto service = GraphService::Create(graph, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Workers not started: requests pile up on the replica queues, round-robin
  // across both replicas of shard 0.
  constexpr uint32_t kRequests = 8;
  for (uint32_t i = 0; i < kRequests; ++i) {
    SampleRequest request;
    request.request_id = i;
    request.shard = 0;
    request.num_seeds = 4;
    request.sample = {1, 4, 600 + i};
    ASSERT_TRUE((*service)->Submit(std::move(request)).ok());
  }
  // Kill replica 0: its queued half moves to replica 1's queue as failovers.
  ASSERT_TRUE((*service)->KillReplica(0, 0).ok());
  ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.replica_kills, 1u);
  EXPECT_EQ(stats.failovers, kRequests / 2);
  EXPECT_TRUE((*service)->membership().IsAlive(0));  // survivors keep the shard up

  // Every request still completes OK, exactly once, served by the survivor.
  (*service)->Start();
  std::map<uint64_t, uint32_t> seen;
  for (uint32_t i = 0; i < kRequests; ++i) {
    std::optional<SampleResponse> response = (*service)->PopResponse(5'000'000);
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->status.ok()) << response->status.ToString();
    EXPECT_EQ(response->replica, 1u);
    ++seen[response->request_id];
  }
  for (const auto& [id, count] : seen) {
    EXPECT_EQ(count, 1u) << "request " << id;
  }
  EXPECT_EQ(seen.size(), kRequests);
  (*service)->Stop();
}

TEST(ReplicaFailoverTest, LastReplicaDeathNamesShardAsSuspect) {
  CsrGraph graph = TestGraph();
  ServiceOptions options = BaseOptions(2, 1);
  auto service = GraphService::Create(graph, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ASSERT_TRUE((*service)->KillReplica(1, 0).ok());
  // Survivor still serves…
  SampleRequest request;
  request.shard = 1;
  request.num_seeds = 4;
  request.sample = {1, 4, 77};
  SampleResponse alive_response = (*service)->Serve(request);
  EXPECT_TRUE(alive_response.status.ok()) << alive_response.status.ToString();

  // …until the last replica dies: the shard is dead, requests complete
  // kUnavailable naming it, and the device epoch has committed.
  ASSERT_TRUE((*service)->KillReplica(1, 1).ok());
  EXPECT_FALSE((*service)->membership().IsAlive(1));
  SampleResponse dead_response = (*service)->Serve(request);
  EXPECT_EQ(dead_response.status.code(), StatusCode::kUnavailable);
  ASSERT_EQ(dead_response.suspects.size(), 1u);
  EXPECT_EQ(dead_response.suspects[0], 1u);

  ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.replica_kills, 2u);
}

TEST(ReplicaFailoverTest, KillShardKillsEveryReplica) {
  CsrGraph graph = TestGraph();
  ServiceOptions options = BaseOptions(3, 1);
  auto service = GraphService::Create(graph, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ASSERT_TRUE((*service)->KillShard(2).ok());
  EXPECT_FALSE((*service)->membership().IsAlive(2));
  EXPECT_EQ((*service)->replicas().AliveReplicas(2), 0u);
  EXPECT_EQ((*service)->stats().replica_kills, 3u);
  EXPECT_FALSE((*service)->KillShard(2).ok());          // already dead
  EXPECT_FALSE((*service)->KillReplica(2, 1).ok());     // so are its replicas
  EXPECT_EQ((*service)->KillReplica(9, 0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*service)->KillReplica(0, 9).code(), StatusCode::kOutOfRange);
}

TEST(ReplicaFailoverTest, KillShardOfLastAliveShardKillsNoReplica) {
  CsrGraph graph = TestGraph();
  ServiceOptions options = BaseOptions(2, 1);
  options.num_shards = 2;
  auto service = GraphService::Create(graph, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ASSERT_TRUE((*service)->KillShard(0).ok());
  // Shard 1 is the last alive shard: KillShard must refuse before killing
  // either of its replicas.
  EXPECT_FALSE((*service)->KillShard(1).ok());
  EXPECT_EQ((*service)->replicas().AliveReplicas(1), 2u);
  EXPECT_EQ((*service)->membership().epoch, 1u);
}

TEST(ReplicaFailoverTest, TrainerRidesThroughReplicaDeath) {
  World w = World::Make(41);
  ServiceOptions options = BaseOptions(2, 2);
  auto service = GraphService::Create(w.graph, options, &w.features);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  MiniBatchTrainerOptions train;
  train.trainer.hidden_dim = 16;
  train.batch_seeds = 24;
  train.batches_per_epoch = 8;
  train.sample = {2, 6, 0x5eed};
  auto trainer = MiniBatchTrainer::Create(service->get(), w.labels, 4, train);
  ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();

  // Baseline epoch, then a replica dies between epochs: training continues
  // without rewind (the synchronous path routes around the dead replica).
  ASSERT_TRUE((*trainer)->TrainEpoch().ok());
  ASSERT_TRUE((*service)->KillReplica(0, 0).ok());
  auto after = (*trainer)->TrainEpoch();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*trainer)->epochs(), 2u);

  // A whole-shard death is NOT ridden through: the epoch fails and the model
  // must be rewound, exactly the pre-replica contract.
  ASSERT_TRUE((*service)->KillShard(1).ok());
  EXPECT_FALSE((*trainer)->TrainEpoch().ok());
  ASSERT_TRUE((*trainer)->RestoreCheckpoint().ok());
}

}  // namespace
}  // namespace dgcl
