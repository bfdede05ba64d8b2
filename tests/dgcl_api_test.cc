#include "dgcl/dgcl.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

TEST(DgclApiTest, InitRejectsEmptyTopology) {
  Topology empty;
  EXPECT_FALSE(DgclContext::Init(std::move(empty)).ok());
}

TEST(DgclApiTest, InitRejectsDisconnectedTopology) {
  Topology topo;
  topo.AddDevice({"a", 0, 0, 0});
  topo.AddDevice({"b", 0, 0, 0});
  // no links
  EXPECT_FALSE(DgclContext::Init(std::move(topo)).ok());
}

TEST(DgclApiTest, OperationsFailBeforeBuildCommInfo) {
  auto ctx = DgclContext::Init(BuildPaperTopology(4));
  ASSERT_TRUE(ctx.ok());
  EXPECT_FALSE(ctx->comm_info_ready());
  EmbeddingMatrix features = EmbeddingMatrix::Zero(10, 4);
  EXPECT_EQ(ctx->DispatchFeatures(features).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(ctx->GraphAllgather({}).ok());
  EXPECT_FALSE(ctx->BuildDeviceGraph(0).ok());
}

TEST(DgclApiTest, FullWorkflowRoundTrip) {
  // The paper's Listing 1 workflow: init -> buildCommInfo -> dispatch ->
  // graphAllgather, then verify every device sees its full G_d inputs.
  Rng rng(3);
  CsrGraph graph = GenerateErdosRenyi(120, 360, rng);
  auto ctx = DgclContext::Init(BuildPaperTopology(8));
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
  EXPECT_TRUE(ctx->comm_info_ready());
  EXPECT_EQ(ctx->num_devices(), 8u);

  const uint32_t dim = 6;
  EmbeddingMatrix features = EmbeddingMatrix::Zero(graph.num_vertices(), dim);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (uint32_t c = 0; c < dim; ++c) {
      features.Row(v)[c] = static_cast<float>(v + c * 0.25f);
    }
  }
  auto local = ctx->DispatchFeatures(features);
  ASSERT_TRUE(local.ok());
  auto slots = ctx->GraphAllgather(*local);
  ASSERT_TRUE(slots.ok());

  const CommRelation& rel = ctx->artifacts().relation;
  for (uint32_t d = 0; d < 8; ++d) {
    const auto& locals = rel.local_vertices[d];
    const auto& remotes = rel.remote_vertices[d];
    for (uint32_t i = 0; i < locals.size(); ++i) {
      EXPECT_EQ((*slots)[d].Row(i)[0], features.Row(locals[i])[0]);
    }
    for (uint32_t i = 0; i < remotes.size(); ++i) {
      EXPECT_EQ((*slots)[d].Row(locals.size() + i)[0], features.Row(remotes[i])[0]);
    }
  }
}

TEST(DgclApiTest, DeviceGraphNeighborhoodsComplete) {
  Rng rng(5);
  CsrGraph graph = GenerateErdosRenyi(80, 240, rng);
  auto ctx = DgclContext::Init(BuildPaperTopology(4));
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
  uint64_t total_edges = 0;
  for (uint32_t d = 0; d < 4; ++d) {
    auto lg = ctx->BuildDeviceGraph(d);
    ASSERT_TRUE(lg.ok());
    total_edges += lg->nbr_slots.size();
  }
  EXPECT_EQ(total_edges, graph.num_edges());
  EXPECT_FALSE(ctx->BuildDeviceGraph(99).ok());
}

TEST(DgclApiTest, PlanIsValidatedAndCompiled) {
  Rng rng(7);
  CsrGraph graph = GenerateErdosRenyi(60, 200, rng);
  auto ctx = DgclContext::Init(BuildPaperTopology(8));
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
  EXPECT_TRUE(ValidateCompiledPlan(ctx->artifacts().compiled, ctx->artifacts().relation, ctx->topology()).ok());
  EXPECT_GT(ctx->artifacts().compiled.TableBytes(), 0u);
}

TEST(DgclApiTest, BackwardRoutesGradientsHome) {
  Rng rng(9);
  CsrGraph graph = GenerateErdosRenyi(50, 150, rng);
  auto ctx = DgclContext::Init(BuildPaperTopology(4));
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
  const CommRelation& rel = ctx->artifacts().relation;
  const uint32_t dim = 2;
  std::vector<EmbeddingMatrix> grads;
  for (uint32_t d = 0; d < 4; ++d) {
    const uint32_t slots =
        static_cast<uint32_t>(rel.local_vertices[d].size() + rel.remote_vertices[d].size());
    EmbeddingMatrix g = EmbeddingMatrix::Zero(slots, dim);
    for (uint32_t r = 0; r < slots; ++r) {
      g.Row(r)[0] = 1.0f;
    }
    grads.push_back(std::move(g));
  }
  auto result = ctx->GraphAllgatherBackward(grads);
  ASSERT_TRUE(result.ok());
  // Each owner's vertex gradient = 1 (its own) + number of destinations.
  for (uint32_t d = 0; d < 4; ++d) {
    const auto& locals = rel.local_vertices[d];
    for (uint32_t i = 0; i < locals.size(); ++i) {
      const float expected = 1.0f + std::popcount(rel.dest_mask[locals[i]]);
      EXPECT_EQ((*result)[d].Row(i)[0], expected);
    }
  }
}

TEST(DgclApiTest, InitValidatesOptions) {
  {
    DgclOptions options;
    options.bytes_per_unit = 0.0;
    EXPECT_EQ(DgclContext::Init(BuildPaperTopology(4), options).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    DgclOptions options;
    options.engine.faults.drop_rate = 1.5;
    EXPECT_EQ(DgclContext::Init(BuildPaperTopology(4), options).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    DgclOptions options;
    options.engine.transport.backoff_base_micros = 100;
    options.engine.transport.backoff_max_micros = 10;
    EXPECT_EQ(DgclContext::Init(BuildPaperTopology(4), options).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Topology-dependent: override references a device that does not exist.
    DgclOptions options;
    options.engine.transport_overrides.push_back({0, 9, Transport::kNic});
    EXPECT_EQ(DgclContext::Init(BuildPaperTopology(4), options).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    DgclOptions options;
    options.engine.faults.dead_device = 99;
    EXPECT_EQ(DgclContext::Init(BuildPaperTopology(4), options).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    DgclOptions options;
    options.planner.strategy = "no-such-strategy";
    auto ctx = DgclContext::Init(BuildPaperTopology(4), options);
    EXPECT_EQ(ctx.status().code(), StatusCode::kInvalidArgument);
    // Actionable: the message lists the valid strategies.
    EXPECT_NE(ctx.status().message().find("spst"), std::string::npos);
  }
  {
    DgclOptions options;
    options.planner.strategy = "";
    EXPECT_EQ(DgclContext::Init(BuildPaperTopology(4), options).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(DgclApiTest, PlannerStrategyFlowsThroughThePipeline) {
  Rng rng(21);
  CsrGraph graph = GenerateErdosRenyi(80, 260, rng);
  DgclOptions options;
  options.planner.strategy = "swap";
  auto ctx = DgclContext::Init(BuildPaperTopology(4), options);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
  const PlanArtifacts& a = ctx->artifacts();
  EXPECT_EQ(a.class_plan.planner_name, "swap");
  EXPECT_EQ(a.compiled.planner_name, "swap");
  EXPECT_TRUE(ValidateCompiledPlan(a.compiled, a.relation, ctx->topology()).ok());
  ASSERT_EQ(a.selection.candidates.size(), 1u);
  EXPECT_EQ(a.selection.selected_strategy, "swap");
}

TEST(DgclApiTest, AutoSelectCommitsWinnerAndRecordsScorecard) {
  Rng rng(22);
  CsrGraph graph = GenerateErdosRenyi(80, 260, rng);
  DgclOptions options;
  options.planner.strategy = "auto";
  auto ctx = DgclContext::Init(BuildPaperTopology(4), options);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
  const PlanArtifacts& a = ctx->artifacts();
  EXPECT_EQ(a.selection.candidates.size(), PlannerNames().size());
  EXPECT_EQ(a.class_plan.planner_name, a.selection.selected_strategy);
  double winner_seconds = 0.0;
  for (const PlannerCandidateScore& c : a.selection.candidates) {
    if (c.selected) {
      winner_seconds = c.simulated_seconds;
    }
  }
  for (const PlannerCandidateScore& c : a.selection.candidates) {
    if (c.planned) {
      EXPECT_GE(c.simulated_seconds, winner_seconds);
    }
  }
  // The committed plan still runs: exchange a feature matrix end to end.
  EmbeddingMatrix features = EmbeddingMatrix::Zero(graph.num_vertices(), 4);
  auto local = ctx->DispatchFeatures(features);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(ctx->GraphAllgather(*local).ok());
}

TEST(DgclApiTest, PlannerSpstOptionsAreHonored) {
  // The pre-PR-6 top-level `spst` spelling is gone; planner.spst is the one
  // spelling and Init keeps whatever the caller set.
  DgclOptions options;
  options.planner.spst.max_class_units = 33;
  auto ctx = DgclContext::Init(BuildPaperTopology(4), options);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(ctx->options().planner.spst.max_class_units, 33u);
}

TEST(DgclApiTest, ArtifactsBundleAndEngineExposeThePipeline) {
  Rng rng(15);
  CsrGraph graph = GenerateErdosRenyi(60, 200, rng);
  DgclOptions options;
  options.engine.transport.wait_timeout_micros = 123'000;
  auto ctx = DgclContext::Init(BuildPaperTopology(4), options);
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());

  const PlanArtifacts& a = ctx->artifacts();
  EXPECT_EQ(a.partitioning.assignment.size(), graph.num_vertices());
  EXPECT_EQ(a.relation.num_devices, 4u);
  EXPECT_GT(a.classes.classes.size(), 0u);
  EXPECT_GT(a.compiled.ops.size(), 0u);
  EXPECT_TRUE(ValidateCompiledPlan(a.compiled, a.relation, ctx->topology()).ok());

  // The engine was armed with the options passed at Init.
  EXPECT_EQ(ctx->engine().options().transport.wait_timeout_micros, 123'000u);
  EXPECT_GT(ctx->engine().connections().size(), 0u);
  EXPECT_EQ(ctx->options().engine.transport.wait_timeout_micros, 123'000u);
}

TEST(DgclApiTest, TransportOverridesFlowThroughToTheEngine) {
  Rng rng(17);
  CsrGraph graph = GenerateErdosRenyi(60, 200, rng);
  DgclOptions plain_options;
  auto plain = DgclContext::Init(BuildPaperTopology(4), plain_options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain->BuildCommInfo(graph).ok());

  DgclOptions forced_options;
  for (uint32_t src = 0; src < 4; ++src) {
    for (uint32_t dst = 0; dst < 4; ++dst) {
      if (src != dst) {
        forced_options.engine.transport_overrides.push_back(
            {src, dst, Transport::kPinnedHostMemory});
      }
    }
  }
  auto forced = DgclContext::Init(BuildPaperTopology(4), forced_options);
  ASSERT_TRUE(forced.ok());
  ASSERT_TRUE(forced->BuildCommInfo(graph).ok());

  const ConnectionTable& connections = forced->engine().connections();
  for (size_t i = 0; i < connections.size(); ++i) {
    EXPECT_EQ(connections.connection(i).transport(), Transport::kPinnedHostMemory);
  }

  // Forcing the transport never changes what a pass delivers.
  EmbeddingMatrix features = EmbeddingMatrix::Zero(graph.num_vertices(), 3);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    features.Row(v)[0] = static_cast<float>(v);
  }
  auto plain_local = plain->DispatchFeatures(features);
  auto forced_local = forced->DispatchFeatures(features);
  ASSERT_TRUE(plain_local.ok());
  ASSERT_TRUE(forced_local.ok());
  auto plain_out = plain->GraphAllgather(*plain_local);
  auto forced_out = forced->GraphAllgather(*forced_local);
  ASSERT_TRUE(plain_out.ok());
  ASSERT_TRUE(forced_out.ok());
  for (uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ((*plain_out)[d].data, (*forced_out)[d].data) << "device " << d;
  }
}

TEST(DgclApiTest, ContextIsMovable) {
  Rng rng(11);
  CsrGraph graph = GenerateErdosRenyi(40, 120, rng);
  auto ctx = DgclContext::Init(BuildPaperTopology(2));
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
  DgclContext moved = std::move(ctx).value();
  EmbeddingMatrix features = EmbeddingMatrix::Zero(graph.num_vertices(), 3);
  auto local = moved.DispatchFeatures(features);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(moved.GraphAllgather(*local).ok());
}


TEST(DgclApiTest, WorksOnNvSwitchAndMultiNicTopologies) {
  Rng rng(13);
  CsrGraph graph = GenerateErdosRenyi(100, 300, rng);
  {
    MachineConfig config;
    config.num_gpus = 16;
    config.nvswitch = true;
    auto ctx = DgclContext::Init(BuildSingleMachine(config));
    ASSERT_TRUE(ctx.ok());
    ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
    EmbeddingMatrix features = EmbeddingMatrix::Zero(graph.num_vertices(), 4);
    auto local = ctx->DispatchFeatures(features);
    ASSERT_TRUE(local.ok());
    EXPECT_TRUE(ctx->GraphAllgather(*local).ok());
  }
  {
    MachineConfig config;
    config.num_gpus = 4;
    config.nics_per_machine = 2;
    auto ctx = DgclContext::Init(BuildCluster(2, config));
    ASSERT_TRUE(ctx.ok());
    ASSERT_TRUE(ctx->BuildCommInfo(graph).ok());
    EXPECT_EQ(ctx->num_devices(), 8u);
    EmbeddingMatrix features = EmbeddingMatrix::Zero(graph.num_vertices(), 4);
    auto local = ctx->DispatchFeatures(features);
    ASSERT_TRUE(local.ok());
    EXPECT_TRUE(ctx->GraphAllgather(*local).ok());
  }
}

}  // namespace
}  // namespace dgcl
