#include "gnn/trainer.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/ids.h"
#include "graph/generators.h"
#include "kernel_tables.h"
#include "partition/multilevel.h"
#include "partition/partitioner.h"
#include "planner/spst.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct World {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;
  CompiledPlan plan;
  EmbeddingMatrix features;
  std::vector<uint32_t> labels;
  uint32_t num_classes = 4;

  static World Make(uint32_t gpus, uint64_t seed) {
    World w;
    Rng rng(seed);
    // Community graph: labels = community ids, learnable by aggregation.
    w.graph = GenerateCommunityGraph(160, 4, 10.0, 0.5, rng);
    w.topo = BuildPaperTopology(gpus);
    MultilevelPartitioner metis;
    w.relation = *BuildCommRelation(w.graph, *metis.Partition(w.graph, gpus));
    SpstPlanner spst;
    w.plan = CompilePlan(*spst.Plan(w.relation, w.topo, 64), w.topo);
    AssignBackwardSubstages(w.plan);
    w.features = EmbeddingMatrix::Zero(160, 8);
    w.labels.resize(160);
    for (VertexId v = 0; v < 160; ++v) {
      const uint32_t community = std::min<uint32_t>(v / 40, 3);
      w.labels[v] = community;
      // Noisy one-hot-ish features correlated with the community.
      for (uint32_t c = 0; c < 8; ++c) {
        w.features.Row(v)[c] = rng.UniformFloat(-0.3f, 0.3f);
      }
      w.features.Row(v)[community] += 1.0f;
    }
    return w;
  }
};

TEST(TrainerTest, LossDecreasesOverEpochs) {
  World w = World::Make(4, 31);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.model = GnnModel::kGcn;
  opts.hidden_dim = 16;
  opts.learning_rate = 0.8f;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            w.num_classes, opts);
  ASSERT_TRUE(trainer.ok());
  auto first = trainer->TrainEpoch();
  ASSERT_TRUE(first.ok());
  double loss = first->loss;
  for (int epoch = 0; epoch < 30; ++epoch) {
    auto r = trainer->TrainEpoch();
    ASSERT_TRUE(r.ok());
    loss = r->loss;
  }
  EXPECT_LT(loss, first->loss * 0.5);
  auto eval = trainer->Evaluate();
  ASSERT_TRUE(eval.ok());
  EXPECT_GT(eval->accuracy, 0.8);
}

class TrainerModelSweep : public ::testing::TestWithParam<GnnModel> {};

TEST_P(TrainerModelSweep, TrainsOnAllModels) {
  World w = World::Make(4, 37);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.model = GetParam();
  opts.hidden_dim = 16;
  opts.learning_rate =
      GetParam() == GnnModel::kGin || GetParam() == GnnModel::kGat ? 0.05f : 0.4f;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            w.num_classes, opts);
  ASSERT_TRUE(trainer.ok());
  auto first = trainer->TrainEpoch();
  ASSERT_TRUE(first.ok());
  double loss = first->loss;
  for (int epoch = 0; epoch < 40; ++epoch) {
    auto r = trainer->TrainEpoch();
    ASSERT_TRUE(r.ok());
    loss = r->loss;
  }
  EXPECT_LT(loss, first->loss) << GnnModelName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, TrainerModelSweep,
                         ::testing::Values(GnnModel::kGcn, GnnModel::kCommNet, GnnModel::kGin,
                                           GnnModel::kGat),
                         [](const auto& info) { return GnnModelName(info.param); });

// The distributed-equals-single-device property: same graph, same seeds,
// 1 device vs 4 devices must produce near-identical logits and loss.
TEST(TrainerTest, DistributedMatchesSingleDevice) {
  World multi = World::Make(4, 41);

  // Single-device world over the same graph/features/labels.
  Topology topo1 = BuildPaperTopology(1);
  MultilevelPartitioner metis;
  CommRelation rel1 = *BuildCommRelation(multi.graph, *metis.Partition(multi.graph, 1));
  SpstPlanner spst;
  CompiledPlan plan1 = CompilePlan(*spst.Plan(rel1, topo1, 64), topo1);
  auto engine1 = AllgatherEngine::Create(rel1, plan1, topo1);
  auto engine4 = AllgatherEngine::Create(multi.relation, multi.plan, multi.topo);
  ASSERT_TRUE(engine1.ok());
  ASSERT_TRUE(engine4.ok());

  TrainerOptions opts;
  opts.model = GnnModel::kGcn;
  opts.hidden_dim = 12;
  opts.learning_rate = 0.3f;
  auto t1 = DistributedTrainer::Create(multi.graph, rel1, *engine1, multi.features,
                                       multi.labels, multi.num_classes, opts);
  auto t4 = DistributedTrainer::Create(multi.graph, multi.relation, *engine4, multi.features,
                                       multi.labels, multi.num_classes, opts);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t4.ok());

  for (int epoch = 0; epoch < 5; ++epoch) {
    auto r1 = t1->TrainEpoch();
    auto r4 = t4->TrainEpoch();
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r4.ok());
    EXPECT_NEAR(r1->loss, r4->loss, 1e-3 * (1.0 + std::abs(r1->loss))) << "epoch " << epoch;
  }
  auto l1 = t1->Logits();
  auto l4 = t4->Logits();
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l4.ok());
  ASSERT_EQ(l1->data.size(), l4->data.size());
  for (size_t i = 0; i < l1->data.size(); ++i) {
    EXPECT_NEAR(l1->data[i], l4->data[i], 5e-3) << "logit " << i;
  }
}

// Every layer parameter and the head of `got` bitwise equal to `want`.
void ExpectWeightsEqual(const ReplicaWeights& got, const ReplicaWeights& want,
                        const std::string& where) {
  ASSERT_EQ(got.layers.size(), want.layers.size()) << where;
  for (size_t l = 0; l < want.layers.size(); ++l) {
    ASSERT_EQ(got.layers[l].size(), want.layers[l].size()) << where << " layer " << l;
    for (size_t p = 0; p < want.layers[l].size(); ++p) {
      EXPECT_EQ(got.layers[l][p].rows, want.layers[l][p].rows)
          << where << " layer " << l << " param " << p;
      EXPECT_EQ(got.layers[l][p].data, want.layers[l][p].data)
          << where << " layer " << l << " param " << p;
    }
  }
  EXPECT_EQ(got.head.rows, want.head.rows) << where;
  EXPECT_EQ(got.head.data, want.head.data) << where;
}

void ExpectReplicasEqual(DistributedTrainer& trainer, uint32_t devices, int epoch) {
  const ReplicaWeights ref = trainer.ExportReplica(0);
  for (uint32_t d = 1; d < devices; ++d) {
    ExpectWeightsEqual(trainer.ExportReplica(d), ref,
                       "epoch " + std::to_string(epoch) + " device " + std::to_string(d));
  }
}

// Each device's math runs on its own persistent worker thread. With 8
// devices (more workers than a small host has cores) the replicas must still
// step in lockstep: after every epoch every replica's weights are bitwise
// equal to device 0's.
TEST(TrainerTest, EightDeviceReplicasStayBitwiseEqual) {
  constexpr uint32_t kDevices = 8;
  World w = World::Make(kDevices, 79);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.hidden_dim = 12;
  opts.learning_rate = 0.5f;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            w.num_classes, opts);
  ASSERT_TRUE(trainer.ok());
  for (int epoch = 0; epoch < 5; ++epoch) {
    auto r = trainer->TrainEpoch();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectReplicasEqual(*trainer, kDevices, epoch);
  }
}

// The loss trajectory of a small fixed run, pinned to the bit. The kernels
// promise every output element adds its terms in one fixed order; any change
// to that order (a blocked loop that reassociates, a skipped zero term that
// is not a no-op, a contracted multiply-add) moves these literals.
// Runs on every kernel table this CPU supports (the dispatched one and the
// baseline among them): all must reach the same bits.
TEST(TrainerTest, PinnedLossTrajectory) {
  World w = World::Make(4, 61);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.model = GnnModel::kGcn;
  opts.num_layers = 2;
  opts.hidden_dim = 16;
  opts.learning_rate = 0.5f;
  const double want[] = {0x1.765e16f80a1cep+0, 0x1.0e1fa4773bb9dp+0, 0x1.cdc27791aa15cp-1,
                         0x1.8d1dde6128051p-1, 0x1.4bd5fbb047084p-1};
  ForEachKernelTable([&](const std::string& table) {
    auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features,
                                              w.labels, w.num_classes, opts);
    ASSERT_TRUE(trainer.ok());
    for (int epoch = 0; epoch < 5; ++epoch) {
      auto r = trainer->TrainEpoch();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->loss, want[epoch]) << table << " table, epoch " << epoch;
    }
  });
}

// A moved trainer keeps training like one never moved (its device programs
// run on the engine's threads), move-assignment drops the target's old
// state, and destroying a moved-from trainer is a no-op.
TEST(TrainerTest, MovedTrainerKeepsTrainingAndJoinsWorkers) {
  World w = World::Make(4, 83);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.hidden_dim = 8;
  auto make = [&] {
    return DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                      w.num_classes, opts);
  };
  auto reference = make();
  auto created = make();
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(created.ok());
  auto expect_same_epoch = [&](DistributedTrainer& trainer) {
    auto got = trainer.TrainEpoch();
    auto want = reference->TrainEpoch();
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->loss, want->loss);
  };
  expect_same_epoch(*created);
  {
    DistributedTrainer moved = std::move(*created);
    expect_same_epoch(moved);
    auto target = make();
    ASSERT_TRUE(target.ok());
    *target = std::move(moved);
    expect_same_epoch(*target);
  }  // `moved` is empty by now
}

TEST(TrainerTest, RejectsBadInputs) {
  World w = World::Make(2, 43);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  EmbeddingMatrix short_features = EmbeddingMatrix::Zero(10, 8);
  EXPECT_FALSE(DistributedTrainer::Create(w.graph, w.relation, *engine, short_features,
                                          w.labels, 4, opts)
                   .ok());
  std::vector<uint32_t> bad_labels = w.labels;
  bad_labels[5] = 9;  // neither kInvalidId nor < num_classes
  auto bad_label = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features,
                                              bad_labels, 4, opts);
  ASSERT_FALSE(bad_label.ok());
  EXPECT_EQ(bad_label.status().code(), StatusCode::kInvalidArgument);
  auto model = MiniBatchModel::Create(w.features.dim, 4, opts);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Step(FullLocalGraph(w.graph), w.features, bad_labels).status().code(),
            StatusCode::kInvalidArgument);
  // A relation built from another graph: its vertex ids do not index this
  // graph's features or neighbors.
  for (uint32_t other_vertices : {60u, 160u}) {
    Rng rng(other_vertices);
    CsrGraph graph = GenerateErdosRenyi(100, 400, rng);
    CsrGraph other = GenerateErdosRenyi(other_vertices, other_vertices * 4, rng);
    HashPartitioner hash;
    CommRelation relation = *BuildCommRelation(other, *hash.Partition(other, 2));
    auto mismatched = DistributedTrainer::Create(graph, relation, *engine,
                                                 EmbeddingMatrix::Zero(100, 8),
                                                 std::vector<uint32_t>(100, 0), 4, opts);
    ASSERT_FALSE(mismatched.ok()) << other_vertices << "-vertex relation";
    EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  }
  TrainerOptions no_hidden = opts;
  no_hidden.hidden_dim = 0;
  auto hidden_trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features,
                                                   w.labels, 4, no_hidden);
  ASSERT_FALSE(hidden_trainer.ok());
  EXPECT_EQ(hidden_trainer.status().code(), StatusCode::kInvalidArgument);
  auto hidden_model = MiniBatchModel::Create(w.features.dim, 4, no_hidden);
  ASSERT_FALSE(hidden_model.ok());
  EXPECT_EQ(hidden_model.status().code(), StatusCode::kInvalidArgument);
  opts.num_layers = 0;
  EXPECT_FALSE(
      DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels, 4, opts)
          .ok());
}

// Layer 0's input is built once in Create, so an L-layer epoch exchanges
// only around layers 1..L-1: L-1 forward and L-1 backward engine passes, and
// an evaluation runs the L-1 forward ones.
TEST(TrainerTest, EpochRunsTwoLMinusTwoEnginePasses) {
  World w = World::Make(4, 103);
  struct Expected {
    uint32_t layers;
    uint64_t train_passes;
    uint64_t eval_passes;
  };
  for (const Expected& want : {Expected{1, 0, 0}, Expected{2, 2, 1}, Expected{3, 4, 2}}) {
    auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
    ASSERT_TRUE(engine.ok());
    TrainerOptions opts;
    opts.num_layers = want.layers;
    opts.hidden_dim = 8;
    auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features,
                                              w.labels, w.num_classes, opts);
    ASSERT_TRUE(trainer.ok());
    EXPECT_EQ(engine->pass_count(), 0u) << "Create runs no engine pass";
    for (int epoch = 0; epoch < 2; ++epoch) {
      uint64_t before = engine->pass_count();
      ASSERT_TRUE(trainer->TrainEpoch().ok());
      EXPECT_EQ(engine->pass_count() - before, want.train_passes) << want.layers << " layers";
      before = engine->pass_count();
      ASSERT_TRUE(trainer->Evaluate().ok());
      EXPECT_EQ(engine->pass_count() - before, want.eval_passes) << want.layers << " layers";
    }
  }
}

// Every replica of a DistributedTrainer and a MiniBatchModel built with the
// same options start from bitwise-equal weights, whatever the device count.
TEST(TrainerTest, StartingReplicaMatchesMiniBatchModel) {
  TrainerOptions opts;
  opts.model = GnnModel::kCommNet;
  opts.num_layers = 3;
  opts.hidden_dim = 10;
  opts.weight_seed = 97;
  for (uint32_t devices : {1u, 2u, 4u}) {
    World w = World::Make(devices, 89);
    auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
    ASSERT_TRUE(engine.ok());
    auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features,
                                              w.labels, w.num_classes, opts);
    ASSERT_TRUE(trainer.ok());
    auto model = MiniBatchModel::Create(w.features.dim, w.num_classes, opts);
    ASSERT_TRUE(model.ok());
    const ReplicaWeights want = model->ExportReplica();
    for (uint32_t d = 0; d < devices; ++d) {
      ExpectWeightsEqual(trainer->ExportReplica(d), want,
                         std::to_string(devices) + " devices, device " + std::to_string(d));
    }
  }
}

// On one device every neighbor is local and the local graph is the whole
// graph, so a DistributedTrainer computes exactly what a MiniBatchModel
// computes on FullLocalGraph, which runs Forward on layer 0 every step. The
// two must agree bit for bit, epoch after epoch, for every model.
TEST(TrainerTest, OneDeviceTrainerMatchesMiniBatchModel) {
  World w = World::Make(1, 101);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  const LocalGraph full = FullLocalGraph(w.graph);
  for (GnnModel model : {GnnModel::kGcn, GnnModel::kCommNet, GnnModel::kGin, GnnModel::kGat}) {
    SCOPED_TRACE(GnnModelName(model));
    TrainerOptions opts;
    opts.model = model;
    opts.hidden_dim = 8;
    opts.learning_rate = 0.1f;
    auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features,
                                              w.labels, w.num_classes, opts);
    ASSERT_TRUE(trainer.ok());
    auto mini = MiniBatchModel::Create(w.features.dim, w.num_classes, opts);
    ASSERT_TRUE(mini.ok());
    for (int epoch = 0; epoch < 5; ++epoch) {
      auto got = trainer->TrainEpoch();
      auto want = mini->Step(full, w.features, w.labels);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got->loss, want->loss) << "epoch " << epoch;
      EXPECT_EQ(got->accuracy, want->accuracy) << "epoch " << epoch;
    }
    ExpectWeightsEqual(trainer->ExportReplica(), mini->ExportReplica(), "after 5 epochs");
  }
}

TEST(TrainerTest, UnlabeledVerticesAreIgnored) {
  World w = World::Make(2, 47);
  for (VertexId v = 0; v < w.graph.num_vertices(); v += 2) {
    w.labels[v] = kInvalidId;
  }
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.hidden_dim = 8;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            4, opts);
  ASSERT_TRUE(trainer.ok());
  auto r = trainer->TrainEpoch();
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->loss, 0.0);
}

}  // namespace
}  // namespace dgcl
