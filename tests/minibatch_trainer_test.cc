// Acceptance tests for the sampled mini-batch training path
// (service/minibatch_trainer.h): the loss trajectory must close most of the
// gap full-graph training closes on the community fixture, epoch-boundary
// checkpoints must make recovery byte-exact, and cross-request fetch
// batching must never change payloads — only wire accounting.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/ids.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "service/minibatch_trainer.h"
#include "service/service.h"

namespace dgcl {
namespace {

// The trainer_test community fixture: labels = community ids, features
// noisy-one-hot correlated with the label, learnable by aggregation.
struct World {
  CsrGraph graph;
  EmbeddingMatrix features;
  std::vector<uint32_t> labels;
  uint32_t num_classes = 4;

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

  ServiceOptions Options() const {
    ServiceOptions options;
    options.num_shards = 4;
    options.partitioner = "hash";
    options.feature_dim = 8;
    options.hidden_dim = 4;
    return options;
  }
};

MiniBatchTrainerOptions TrainOptions() {
  MiniBatchTrainerOptions options;
  options.trainer.hidden_dim = 16;
  options.trainer.learning_rate = 0.3f;
  options.batch_seeds = 24;
  options.batches_per_epoch = 8;
  options.sample = {2, 6, 0x5eed};
  return options;
}

TEST(MiniBatchTrainerTest, ValidateRejectsBadOptions) {
  World w = World::Make(41);
  auto service = GraphService::Create(w.graph, w.Options(), &w.features);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  MiniBatchTrainerOptions bad = TrainOptions();
  bad.batch_seeds = 0;
  EXPECT_FALSE(MiniBatchTrainer::Create(service->get(), w.labels, 4, bad).ok());

  std::vector<uint32_t> bad_labels = w.labels;
  bad_labels[5] = 9;  // neither kInvalidId nor < num_classes
  auto bad_label = MiniBatchTrainer::Create(service->get(), bad_labels, 4, TrainOptions());
  ASSERT_FALSE(bad_label.ok());
  EXPECT_EQ(bad_label.status().code(), StatusCode::kInvalidArgument);

  std::vector<uint32_t> short_labels(10, 0);
  EXPECT_FALSE(MiniBatchTrainer::Create(service->get(), short_labels, 4, TrainOptions()).ok());

  EXPECT_FALSE(MiniBatchTrainer::Create(nullptr, w.labels, 4, TrainOptions()).ok());
}

TEST(MiniBatchTrainerTest, FeatureInjectionRequiresMatchingShape) {
  World w = World::Make(41);
  EmbeddingMatrix wrong = EmbeddingMatrix::Zero(160, 5);  // dim != feature_dim
  EXPECT_FALSE(GraphService::Create(w.graph, w.Options(), &wrong).ok());
  EmbeddingMatrix short_rows = EmbeddingMatrix::Zero(10, 8);
  EXPECT_FALSE(GraphService::Create(w.graph, w.Options(), &short_rows).ok());
  auto service = GraphService::Create(w.graph, w.Options(), &w.features);
  ASSERT_TRUE(service.ok());
  // The injected matrix is what the service serves.
  EXPECT_EQ((*service)->features().data, w.features.data);
}

// The loss-trajectory acceptance test: sampled mini-batch training must
// learn the community structure — final full-graph loss well under the
// starting loss, accuracy far above the 0.25 chance level.
TEST(MiniBatchTrainerTest, LossTrajectoryClosesTheGap) {
  World w = World::Make(41);
  auto service = GraphService::Create(w.graph, w.Options(), &w.features);
  ASSERT_TRUE(service.ok());
  auto trainer = MiniBatchTrainer::Create(service->get(), w.labels, w.num_classes,
                                          TrainOptions());
  ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();

  auto initial = (*trainer)->Evaluate();
  ASSERT_TRUE(initial.ok());
  double first_epoch_loss = 0.0;
  for (uint32_t epoch = 0; epoch < 25; ++epoch) {
    auto result = (*trainer)->TrainEpoch();
    ASSERT_TRUE(result.ok()) << "epoch " << epoch << ": " << result.status().ToString();
    EXPECT_TRUE(std::isfinite(result->loss));
    if (epoch == 0) {
      first_epoch_loss = result->loss;
    }
  }
  EXPECT_EQ((*trainer)->epochs(), 25u);
  auto final_eval = (*trainer)->Evaluate();
  ASSERT_TRUE(final_eval.ok());
  EXPECT_LT(final_eval->loss, initial->loss * 0.5);
  EXPECT_LT(final_eval->loss, first_epoch_loss);
  EXPECT_GT(final_eval->accuracy, 0.7);
}

// Every strategy can feed the trainer: one epoch trains and the schedule is
// reproducible (a fresh identically-configured trainer's first epoch returns
// the same loss bit for bit).
TEST(MiniBatchTrainerTest, EveryStrategyTrainsDeterministically) {
  World w = World::Make(41);
  for (const std::string& strategy : SamplerNames()) {
    ServiceOptions service_options = w.Options();
    service_options.sampler = strategy;
    auto service = GraphService::Create(w.graph, service_options, &w.features);
    ASSERT_TRUE(service.ok());
    const MiniBatchTrainerOptions options = TrainOptions();
    auto trainer = MiniBatchTrainer::Create(service->get(), w.labels, w.num_classes, options);
    ASSERT_TRUE(trainer.ok()) << strategy;
    auto once = (*trainer)->TrainEpoch();
    ASSERT_TRUE(once.ok()) << strategy << ": " << once.status().ToString();
    EXPECT_TRUE(std::isfinite(once->loss)) << strategy;

    auto service2 = GraphService::Create(w.graph, service_options, &w.features);
    ASSERT_TRUE(service2.ok());
    auto trainer2 = MiniBatchTrainer::Create(service2->get(), w.labels, w.num_classes, options);
    ASSERT_TRUE(trainer2.ok());
    auto again = (*trainer2)->TrainEpoch();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(once->loss, again->loss) << strategy;
    EXPECT_EQ(once->accuracy, again->accuracy) << strategy;
  }
}

// Mid-epoch failure + RestoreCheckpoint reproduces a never-failed run
// byte-for-byte (the PR-5 checkpoint machinery, reused at epoch boundaries).
TEST(MiniBatchTrainerTest, CheckpointRestoreAfterShardDeathIsByteExact) {
  World w = World::Make(41);

  // hops = 0: a batch is its seed set (all local to the home shard), so a
  // batch touches ONLY its home shard — epoch 2 below genuinely steps the
  // model on batches 0 and 1 before batch 2's dead home shard fails it.
  MiniBatchTrainerOptions train_options = TrainOptions();
  train_options.sample.hops = 0;

  // Reference: clean run of one epoch, then evaluate.
  auto clean_service = GraphService::Create(w.graph, w.Options(), &w.features);
  ASSERT_TRUE(clean_service.ok());
  auto clean = MiniBatchTrainer::Create(clean_service->get(), w.labels, w.num_classes,
                                        train_options);
  ASSERT_TRUE(clean.ok());
  auto clean_epoch = (*clean)->TrainEpoch();
  ASSERT_TRUE(clean_epoch.ok());
  auto clean_eval = (*clean)->Evaluate();
  ASSERT_TRUE(clean_eval.ok());

  // Faulty run: same first epoch, then a shard dies mid-epoch-2.
  auto service = GraphService::Create(w.graph, w.Options(), &w.features);
  ASSERT_TRUE(service.ok());
  auto trainer = MiniBatchTrainer::Create(service->get(), w.labels, w.num_classes,
                                          train_options);
  ASSERT_TRUE(trainer.ok());
  auto epoch1 = (*trainer)->TrainEpoch();
  ASSERT_TRUE(epoch1.ok());
  EXPECT_EQ(epoch1->loss, clean_epoch->loss);  // schedule purity

  // Shard 2 dies: epoch 2 steps batches 0 and 1 (home shards 0, 1) before
  // batch 2's home shard turns out dead — the model is partially stepped.
  ASSERT_TRUE((*service)->KillShard(2).ok());
  auto failed = (*trainer)->TrainEpoch();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ((*trainer)->epochs(), 1u);  // the epoch did not commit

  // The partially-stepped model differs from the epoch-1 boundary...
  auto dirty_eval = (*trainer)->Evaluate();
  ASSERT_TRUE(dirty_eval.ok());
  EXPECT_NE(dirty_eval->loss, clean_eval->loss);

  // ...and the restore rewinds it exactly.
  ASSERT_TRUE((*trainer)->RestoreCheckpoint().ok());
  auto restored_eval = (*trainer)->Evaluate();
  ASSERT_TRUE(restored_eval.ok());
  EXPECT_EQ(restored_eval->loss, clean_eval->loss);
  EXPECT_EQ(restored_eval->accuracy, clean_eval->accuracy);
}

// ---- cross-request fetch batching -------------------------------------------

// Batching changes wire accounting, never payloads: the same request mix
// returns byte-identical nodes/features/embeddings with batching on or off.
TEST(FetchBatchingTest, PayloadsIdenticalBatchedAndUnbatched) {
  World w = World::Make(41);
  auto run = [&](bool batch) {
    ServiceOptions options = w.Options();
    options.fetch.enabled = batch;
    options.fetch.window_micros = 100;
    options.cache_capacity_rows = 1;  // defeat the cache: every remote row fetches
    auto service = GraphService::Create(w.graph, options, &w.features);
    EXPECT_TRUE(service.ok());
    std::vector<SampleResponse> responses;
    for (uint32_t i = 0; i < 12; ++i) {
      SampleRequest request;
      request.request_id = i;
      request.shard = i % 4;
      request.num_seeds = 8;
      request.sample = {2, 4, 700 + i};
      request.return_features = true;
      request.run_inference = true;
      responses.push_back((*service)->Serve(std::move(request)));
    }
    ServiceStats stats = (*service)->stats();
    EXPECT_GT(stats.fetch_messages, 0u);
    EXPECT_GT(stats.fetch_bytes, 0u);
    return responses;
  };
  const auto unbatched = run(false);
  const auto batched = run(true);
  ASSERT_EQ(unbatched.size(), batched.size());
  for (size_t i = 0; i < unbatched.size(); ++i) {
    ASSERT_TRUE(unbatched[i].status.ok()) << unbatched[i].status.ToString();
    ASSERT_TRUE(batched[i].status.ok()) << batched[i].status.ToString();
    EXPECT_EQ(batched[i].nodes, unbatched[i].nodes) << "request " << i;
    EXPECT_EQ(batched[i].features.data, unbatched[i].features.data) << "request " << i;
    EXPECT_EQ(batched[i].embeddings.data, unbatched[i].embeddings.data) << "request " << i;
  }
}

// Under concurrent same-shard load, joiners ride the leader's Transmit: the
// coalesced counter rises and messages on the wire drop below one per fetch.
// (This is the test the TSan gate leans on: leader/joiner handoff, window
// timing, and stats publication all race here.)
TEST(FetchBatchingTest, ConcurrentFetchesCoalesce) {
  World w = World::Make(41);
  ServiceOptions options = w.Options();
  options.samplers_per_shard = 4;
  options.fetch.enabled = true;
  options.fetch.window_micros = 2000;
  // Gap = window holds the full window, so coalescing is a certainty under
  // scheduler noise, not a race this test could lose.
  options.fetch.close_gap_micros = 2000;
  options.cache_capacity_rows = 1;
  auto service = GraphService::Create(w.graph, options, &w.features);
  ASSERT_TRUE(service.ok());
  (*service)->Start();
  constexpr uint32_t kRequests = 48;
  for (uint32_t i = 0; i < kRequests; ++i) {
    SampleRequest request;
    request.request_id = i;
    request.shard = 0;  // one home shard: its pool fetches concurrently
    request.num_seeds = 8;
    request.sample = {2, 4, 900 + i};
    request.return_features = true;
    ASSERT_TRUE((*service)->Submit(std::move(request)).ok());
  }
  uint32_t ok = 0;
  for (uint32_t i = 0; i < kRequests; ++i) {
    auto response = (*service)->PopResponse(5'000'000);
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->status.ok()) << response->status.ToString();
    ok += response->status.ok();
  }
  (*service)->Stop();
  EXPECT_EQ(ok, kRequests);
  ServiceStats stats = (*service)->stats();
  EXPECT_GT(stats.fetch_rows, 0u);
  EXPECT_GT(stats.fetch_coalesced, 0u);
  // Coalesced fetches = fetches that did not pay their own message.
  EXPECT_LT(stats.fetch_messages, stats.fetch_rows);
}

TEST(FetchBatchingTest, ValidateRejectsBadWindows) {
  World w = World::Make(41);
  ServiceOptions options = w.Options();
  options.fetch.enabled = true;
  options.fetch.window_micros = 0;
  EXPECT_FALSE(GraphService::Create(w.graph, options, &w.features).ok());
  options.fetch.window_micros = 100;
  options.fetch.max_rows = 0;
  EXPECT_FALSE(GraphService::Create(w.graph, options, &w.features).ok());
  options.fetch.max_rows = 256;
  options.fetch.close_gap_micros = 0;
  EXPECT_FALSE(GraphService::Create(w.graph, options, &w.features).ok());
}

}  // namespace
}  // namespace dgcl
