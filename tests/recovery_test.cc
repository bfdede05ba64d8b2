// Elastic fault recovery: mechanisms (membership epochs, surviving-topology
// derivation, incremental repartition), the engine's
// failure post-mortem (suspect sets, mid-epoch kill points), the
// DgclContext::Recover protocol end to end, and the acceptance invariant —
// training through a mid-epoch device death converges to the same loss
// trajectory as a healthy run (recovery must not perturb the math).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dgcl/dgcl.h"
#include "dgcl/elastic.h"
#include "graph/generators.h"
#include "partition/multilevel.h"
#include "partition/partitioner.h"
#include "planner/spst.h"
#include "runtime/recovery.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

constexpr uint64_t kFastTimeoutMicros = 150'000;

EmbeddingMatrix MakeFeatures(uint32_t vertices, uint32_t dim) {
  EmbeddingMatrix f = EmbeddingMatrix::Zero(vertices, dim);
  for (uint32_t v = 0; v < vertices; ++v) {
    for (uint32_t c = 0; c < dim; ++c) {
      f.Row(v)[c] = 0.1f * static_cast<float>((v * 7 + c * 3) % 11) - 0.5f;
    }
  }
  return f;
}

std::vector<uint32_t> MakeLabels(uint32_t vertices, uint32_t num_classes) {
  std::vector<uint32_t> labels(vertices);
  for (uint32_t v = 0; v < vertices; ++v) {
    labels[v] = (v * 13 + 5) % num_classes;
  }
  return labels;
}

// --- mechanisms ---------------------------------------------------------

TEST(RecoveryTest, RecoverableFailureClassification) {
  EXPECT_TRUE(IsRecoverableFailure(Status::DeadlineExceeded("peer wait")));
  EXPECT_TRUE(IsRecoverableFailure(Status::Unavailable("dead")));
  EXPECT_FALSE(IsRecoverableFailure(Status::Ok()));
  EXPECT_FALSE(IsRecoverableFailure(Status::InvalidArgument("bad dim")));
  EXPECT_FALSE(IsRecoverableFailure(Status::Internal("bug")));
}

TEST(MembershipTest, CommitBumpsEpochAndRemovesDead) {
  MembershipService service(4);
  EXPECT_EQ(service.view().epoch, 0u);
  EXPECT_EQ(service.view().NumAlive(), 4u);

  auto view = service.CommitFailure(DeviceMask{1} << 2);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->epoch, 1u);
  EXPECT_EQ(view->NumAlive(), 3u);
  EXPECT_FALSE(view->IsAlive(2));
  EXPECT_EQ(view->DeadDevices(4), std::vector<uint32_t>{2});

  // A device can only die once: re-suspecting it alone is an empty commit.
  EXPECT_FALSE(service.CommitFailure(DeviceMask{1} << 2).ok());
  EXPECT_EQ(service.view().epoch, 1u) << "failed commit must not bump the epoch";

  // Mixed suspect sets commit only the still-alive members.
  view = service.CommitFailure((DeviceMask{1} << 2) | (DeviceMask{1} << 0));
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->epoch, 2u);
  EXPECT_EQ(view->NumAlive(), 2u);
}

TEST(MembershipTest, RejectsEmptyAndTotalFailure) {
  MembershipService service(3);
  EXPECT_FALSE(service.CommitFailure(0).ok());
  EXPECT_FALSE(service.CommitFailure(0b111).ok()) << "must leave a survivor";
  EXPECT_EQ(service.view().NumAlive(), 3u);
}

TEST(SurvivingTopologyTest, CompactsDevicesAndKeepsSurvivorLinks) {
  Topology topo = BuildPaperTopology(8);
  MembershipService service(8);
  auto view = service.CommitFailure(DeviceMask{1} << 5);
  ASSERT_TRUE(view.ok());

  auto surviving = BuildSurvivingTopology(topo, *view);
  ASSERT_TRUE(surviving.ok());
  EXPECT_EQ(surviving->topology.num_devices(), 7u);
  EXPECT_EQ(surviving->new_to_old.size(), 7u);
  EXPECT_EQ(surviving->old_to_new[5], kInvalidId);
  // Physical contention domains are copied verbatim (stable conn ids).
  EXPECT_EQ(surviving->topology.num_connections(), topo.num_connections());
  // Every surviving ordered pair keeps its link with identical hops.
  for (uint32_t i = 0; i < 7; ++i) {
    for (uint32_t j = 0; j < 7; ++j) {
      if (i == j) {
        continue;
      }
      const LinkId old_link = topo.LinkBetween(surviving->new_to_old[i], surviving->new_to_old[j]);
      const LinkId new_link = surviving->topology.LinkBetween(i, j);
      ASSERT_NE(old_link, kInvalidId);
      ASSERT_NE(new_link, kInvalidId);
      EXPECT_EQ(surviving->topology.link(new_link).hops, topo.link(old_link).hops);
    }
  }
  EXPECT_TRUE(surviving->topology.IsFullyConnected());
}

TEST(IncrementalRepartitionTest, MovesEveryDeadVertexToADestinationSetSurvivor) {
  Rng rng(31);
  CsrGraph graph = GenerateErdosRenyi(80, 320, rng);
  HashPartitioner hash;
  Partitioning partitioning = *hash.Partition(graph, 4);
  CommRelation relation = *BuildCommRelation(graph, partitioning);
  CommClasses classes = BuildCommClasses(relation);

  MembershipService service(4);
  auto view = service.CommitFailure(DeviceMask{1} << 1);
  ASSERT_TRUE(view.ok());

  RepartitionStats stats;
  auto repaired = IncrementalRepartition(classes, partitioning, *view, &stats);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->num_parts, 4u) << "pre-compaction id space";

  uint64_t moved = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_NE(repaired->assignment[v], 1u) << "vertex " << v << " still on the dead device";
    if (partitioning.assignment[v] == 1) {
      ++moved;
    } else {
      EXPECT_EQ(repaired->assignment[v], partitioning.assignment[v])
          << "surviving vertex " << v << " must not move";
    }
  }
  EXPECT_EQ(stats.moved_vertices, moved);
  EXPECT_GT(stats.moved_classes, 0u);

  // The heuristic's defining property: a dead-sourced class with surviving
  // destinations lands *inside* its destination set (those devices already
  // need every member vertex).
  for (const CommClass& cls : classes.classes) {
    if (cls.source != 1) {
      continue;
    }
    const DeviceMask surviving_dests = cls.mask & view->alive;
    if (surviving_dests == 0) {
      continue;
    }
    const uint32_t target = repaired->assignment[cls.vertices[0]];
    EXPECT_TRUE((surviving_dests >> target) & 1)
        << "class moved to " << target << " outside its destination set";
    for (VertexId v : cls.vertices) {
      EXPECT_EQ(repaired->assignment[v], target) << "class must move wholesale";
    }
  }

  // Compaction drops the dead id from the space.
  auto surviving = BuildSurvivingTopology(BuildPaperTopology(4), *view);
  ASSERT_TRUE(surviving.ok());
  auto remapped = RemapPartitioning(*repaired, surviving->old_to_new, 3);
  ASSERT_TRUE(remapped.ok());
  EXPECT_TRUE(ValidatePartitioning(graph, *remapped).ok());

  // Remapping the *original* partitioning must fail: it still assigns
  // vertices to the dead (unmapped) device.
  EXPECT_FALSE(RemapPartitioning(partitioning, surviving->old_to_new, 3).ok());
}

TEST(IncrementalRepartitionTest, NoDeathIsIdentity) {
  Rng rng(32);
  CsrGraph graph = GenerateErdosRenyi(40, 160, rng);
  HashPartitioner hash;
  Partitioning partitioning = *hash.Partition(graph, 4);
  CommRelation relation = *BuildCommRelation(graph, partitioning);
  CommClasses classes = BuildCommClasses(relation);
  MembershipService service(4);
  auto repaired = IncrementalRepartition(classes, partitioning, service.view(), nullptr);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->assignment, partitioning.assignment);
}

// --- engine post-mortem -------------------------------------------------

struct EngineFixture {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;
  CompiledPlan plan;

  static EngineFixture Make(uint32_t gpus, uint64_t seed) {
    EngineFixture f;
    Rng rng(seed);
    f.graph = GenerateErdosRenyi(70, 210, rng);
    f.topo = BuildPaperTopology(gpus);
    MultilevelPartitioner metis;
    f.relation = *BuildCommRelation(f.graph, *metis.Partition(f.graph, gpus));
    SpstPlanner spst;
    f.plan = CompilePlan(*spst.Plan(f.relation, f.topo, 64), f.topo);
    AssignBackwardSubstages(f.plan);
    return f;
  }

  std::vector<EmbeddingMatrix> Local(uint32_t dim) const {
    std::vector<EmbeddingMatrix> local;
    for (uint32_t d = 0; d < relation.num_devices; ++d) {
      const auto& locals = relation.local_vertices[d];
      EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), dim);
      for (uint32_t i = 0; i < locals.size(); ++i) {
        m.Row(i)[0] = static_cast<float>(locals[i] + 1);
      }
      local.push_back(std::move(m));
    }
    return local;
  }
};

TEST(EnginePostMortemTest, DeadDeviceBecomesTheSuspect) {
  EngineFixture f = EngineFixture::Make(4, 19);
  EngineOptions options;
  options.faults.dead_device = 1;
  options.transport.wait_timeout_micros = kFastTimeoutMicros;
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->last_failure().has_value());

  auto out = engine->Forward(f.Local(2));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);

  auto failure = engine->last_failure();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(failure->suspects, DeviceMask{1} << 1)
      << "exactly the dead device, no innocent blocked peers";
  EXPECT_EQ(failure->pass_index, 0u);
}

TEST(EnginePostMortemTest, SuccessfulPassClearsLastFailure) {
  EngineFixture f = EngineFixture::Make(4, 21);
  auto local = f.Local(2);
  EngineOptions options;
  options.faults.dead_device = 2;
  options.faults.dead_from_pass = 1;  // pass 0 healthy, pass 1 dies
  options.transport.wait_timeout_micros = kFastTimeoutMicros;
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo, options);
  ASSERT_TRUE(engine.ok());

  ASSERT_TRUE(engine->Forward(local).ok());
  EXPECT_FALSE(engine->last_failure().has_value());
  EXPECT_EQ(engine->pass_count(), 1u);

  ASSERT_FALSE(engine->Forward(local).ok());
  auto failure = engine->last_failure();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->suspects, DeviceMask{1} << 2);
  EXPECT_EQ(failure->pass_index, 1u);
}

TEST(EnginePostMortemTest, DeadFromPassDelaysTheKill) {
  EngineFixture f = EngineFixture::Make(2, 23);
  auto local = f.Local(2);
  EngineOptions options;
  options.faults.dead_device = 0;
  options.faults.dead_from_pass = 3;
  options.transport.wait_timeout_micros = kFastTimeoutMicros;
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo, options);
  ASSERT_TRUE(engine.ok());
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_TRUE(engine->Forward(local).ok()) << "pass " << pass << " should be healthy";
  }
  EXPECT_FALSE(engine->Forward(local).ok()) << "pass 3 is the kill point";
}

// --- the protocol end to end --------------------------------------------

TEST(RecoverTest, ReplansOntoSurvivingTopologyAndDeliversCorrectly) {
  Rng rng(41);
  CsrGraph graph = GenerateErdosRenyi(120, 480, rng);
  DgclOptions options;
  options.engine.faults.dead_device = 3;
  options.engine.transport.wait_timeout_micros = kFastTimeoutMicros;
  auto ctx = DgclContext::Init(BuildPaperTopology(8), options);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());

  EmbeddingMatrix features = MakeFeatures(graph.num_vertices(), 3);
  auto local = ctx->DispatchFeatures(features);
  ASSERT_TRUE(local.ok());
  auto failed = ctx->GraphAllgather(*local);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);

  auto report = ctx->RecoverFromLastFailure();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->epoch, 1u);
  EXPECT_EQ(report->survivors, 7u);
  EXPECT_EQ(report->failed_devices, std::vector<uint32_t>{3});
  EXPECT_GT(report->moved_vertices, 0u);
  EXPECT_GE(report->MttrSeconds(), 0.0);

  // The context now looks freshly built for the surviving topology.
  EXPECT_EQ(ctx->num_devices(), 7u);
  EXPECT_TRUE(ctx->topology().IsFullyConnected());
  EXPECT_EQ(ctx->membership().epoch, 1u);
  EXPECT_EQ(ctx->membership().NumAlive(), 7u);
  const std::vector<uint32_t> expected_origin = {0, 1, 2, 4, 5, 6, 7};
  EXPECT_EQ(ctx->device_origin(), expected_origin);
  EXPECT_EQ(ctx->options().engine.faults.dead_device, kInvalidId)
      << "the injected death is consumed by the recovery";

  // And the retried allgather delivers every slot correctly.
  local = ctx->DispatchFeatures(features);
  ASSERT_TRUE(local.ok());
  auto slots = ctx->GraphAllgather(*local);
  ASSERT_TRUE(slots.ok()) << slots.status().ToString();
  const CommRelation& relation = ctx->artifacts().relation;
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    uint32_t row = 0;
    for (VertexId v : relation.local_vertices[d]) {
      EXPECT_EQ((*slots)[d].Row(row++)[0], features.Row(v)[0]) << "local " << v;
    }
    for (VertexId v : relation.remote_vertices[d]) {
      EXPECT_EQ((*slots)[d].Row(row++)[0], features.Row(v)[0]) << "remote " << v;
    }
  }

  // A second, distinct failure can be committed on the new id space.
  auto second = ctx->Recover(DeviceMask{1} << 0);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(ctx->num_devices(), 6u);
  const std::vector<uint32_t> origin_after_two = {1, 2, 4, 5, 6, 7};
  EXPECT_EQ(ctx->device_origin(), origin_after_two);
}

TEST(RecoverTest, PreconditionsAndBadSuspects) {
  Rng rng(43);
  CsrGraph graph = GenerateErdosRenyi(60, 240, rng);

  {  // before BuildCommInfo / without a recorded failure
    auto ctx = DgclContext::Init(BuildPaperTopology(4), {});
    ASSERT_TRUE(ctx.ok());
    EXPECT_EQ(ctx->Recover(DeviceMask{1}).status().code(), StatusCode::kFailedPrecondition);
    ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
    EXPECT_EQ(ctx->RecoverFromLastFailure().status().code(), StatusCode::kFailedPrecondition);
    // Empty and total suspect sets are rejected with state untouched.
    EXPECT_FALSE(ctx->Recover(0).ok());
    EXPECT_FALSE(ctx->Recover(0b1111).ok());
    EXPECT_EQ(ctx->num_devices(), 4u);
    EXPECT_EQ(ctx->membership().epoch, 0u);
  }
}

// --- acceptance: training through a mid-epoch death ---------------------

// Healthy-run loss trajectory for comparison. Full-graph synchronous data
// parallelism computes the same global gradient on any layout, so a healthy
// run on ANY topology is the reference (up to float summation order).
std::vector<double> ReferenceLosses(const CsrGraph& graph, const EmbeddingMatrix& features,
                                    const std::vector<uint32_t>& labels, uint32_t num_classes,
                                    const TrainerOptions& trainer_options, uint32_t epochs,
                                    uint32_t gpus) {
  auto ctx = DgclContext::Init(BuildPaperTopology(gpus), {});
  EXPECT_TRUE(ctx.ok());
  EXPECT_TRUE(ctx->BuildCommInfo(graph).ok());
  auto trainer = DistributedTrainer::Create(graph, ctx->artifacts().relation, ctx->engine(),
                                            features, labels, num_classes, trainer_options);
  EXPECT_TRUE(trainer.ok());
  std::vector<double> losses;
  for (uint32_t e = 0; e < epochs; ++e) {
    auto result = trainer->TrainEpoch();
    EXPECT_TRUE(result.ok());
    losses.push_back(result->loss);
  }
  return losses;
}

TEST(ElasticTrainingTest, SurvivesMidEpochDeathWithMatchingLossTrajectory) {
  Rng rng(47);
  CsrGraph graph = GenerateErdosRenyi(100, 400, rng);
  const uint32_t num_classes = 4;
  EmbeddingMatrix features = MakeFeatures(graph.num_vertices(), 6);
  std::vector<uint32_t> labels = MakeLabels(graph.num_vertices(), num_classes);
  TrainerOptions trainer_options;
  trainer_options.num_layers = 2;
  trainer_options.hidden_dim = 8;
  const uint32_t epochs = 4;

  DgclOptions options;
  options.engine.faults.dead_device = 2;
  // 2 layers => 2 passes/epoch (forward 1, backward 1). Pass 2 is epoch 1's
  // layer-1 forward allgather: a genuine mid-epoch kill.
  options.engine.faults.dead_from_pass = 2;
  options.engine.transport.wait_timeout_micros = kFastTimeoutMicros;
  auto ctx = DgclContext::Init(BuildPaperTopology(8), options);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());

  auto session = ElasticTrainingSession::Create(*ctx, graph, features, labels, num_classes,
                                                trainer_options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  std::vector<double> losses;
  for (uint32_t e = 0; e < epochs; ++e) {
    auto result = session->TrainEpoch();
    ASSERT_TRUE(result.ok()) << "epoch " << e << ": " << result.status().ToString();
    losses.push_back(result->loss);
  }

  ASSERT_EQ(session->recoveries(), 1u);
  const RecoveryReport& report = session->recovery_log()[0];
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(report.survivors, 7u);
  EXPECT_EQ(report.failed_devices, std::vector<uint32_t>{2});
  EXPECT_GT(report.resume_seconds, 0.0);
  EXPECT_EQ(ctx->num_devices(), 7u);

  const std::vector<double> reference =
      ReferenceLosses(graph, features, labels, num_classes, trainer_options, epochs, 4);
  ASSERT_EQ(losses.size(), reference.size());
  for (uint32_t e = 0; e < epochs; ++e) {
    EXPECT_NEAR(losses[e], reference[e], 1e-3)
        << "recovery perturbed the loss trajectory at epoch " << e;
  }
}

TEST(ElasticTrainingTest, ThreeLayerKillAtEveryPassRecoversOnceAndMatchesHealthyRun) {
  Rng rng(53);
  CsrGraph graph = GenerateErdosRenyi(80, 320, rng);
  const uint32_t num_classes = 3;
  EmbeddingMatrix features = MakeFeatures(graph.num_vertices(), 4);
  std::vector<uint32_t> labels = MakeLabels(graph.num_vertices(), num_classes);
  TrainerOptions trainer_options;
  trainer_options.num_layers = 3;
  trainer_options.hidden_dim = 6;
  const uint32_t epochs = 3;
  const std::vector<double> reference =
      ReferenceLosses(graph, features, labels, num_classes, trainer_options, epochs, 4);

  // 3 layers => passes forward 1, forward 2, backward 2, backward 1: epoch
  // 0's passes 0 and 1 are forward, 2 and 3 backward. Wherever the device
  // dies, the retried epoch re-runs every exchange on the survivors.
  for (uint32_t kill_pass = 0; kill_pass < DistributedTrainer::PassesPerEpoch(3); ++kill_pass) {
    SCOPED_TRACE("kill at pass " + std::to_string(kill_pass));
    DgclOptions options;
    options.engine.faults.dead_device = 1;
    options.engine.faults.dead_from_pass = kill_pass;
    options.engine.transport.wait_timeout_micros = kFastTimeoutMicros;
    auto ctx = DgclContext::Init(BuildPaperTopology(4), options);
    ASSERT_TRUE(ctx.ok());
    ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
    auto session = ElasticTrainingSession::Create(*ctx, graph, features, labels, num_classes,
                                                  trainer_options);
    ASSERT_TRUE(session.ok());
    std::vector<double> losses;
    for (uint32_t e = 0; e < epochs; ++e) {
      auto result = session->TrainEpoch();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      losses.push_back(result->loss);
    }
    ASSERT_EQ(session->recoveries(), 1u);
    EXPECT_EQ(session->recovery_log()[0].failed_devices, std::vector<uint32_t>{1});
    EXPECT_EQ(ctx->num_devices(), 3u);
    for (uint32_t e = 0; e < epochs; ++e) {
      EXPECT_NEAR(losses[e], reference[e], 1e-3)
          << "recovery perturbed the loss trajectory at epoch " << e;
    }
  }
}

}  // namespace
}  // namespace dgcl
