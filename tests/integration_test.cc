// Cross-module property tests: random (graph, topology, planner) pipelines
// must produce valid, executable, correctly-delivering plans whose simulated
// cost correlates with the planner's estimate.

#include <bit>

#include <gtest/gtest.h>

#include "comm/compiled_plan.h"
#include "graph/generators.h"
#include "partition/hierarchical.h"
#include "partition/multilevel.h"
#include "planner/baselines.h"
#include "planner/cost_model.h"
#include "planner/spst.h"
#include "runtime/allgather_engine.h"
#include "sim/network_sim.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct PipelineParam {
  uint32_t gpus;
  uint64_t seed;
  bool dense;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineSweep, EndToEndPlanExecutesCorrectly) {
  const auto [gpus, seed, dense] = GetParam();
  Rng rng(seed);
  CsrGraph graph = dense ? GenerateRmat({.scale = 9, .num_edges = 8000}, rng)
                         : GenerateRmat({.scale = 10, .num_edges = 2000}, rng);
  Topology topo = BuildPaperTopology(gpus);
  MultilevelPartitioner metis;
  auto parts = PartitionForTopology(graph, topo, metis);
  ASSERT_TRUE(parts.ok());
  auto rel = BuildCommRelation(graph, *parts);
  ASSERT_TRUE(rel.ok());

  for (bool use_spst : {true, false}) {
    SpstPlanner spst;
    PeerToPeerPlanner p2p;
    Planner& planner = use_spst ? static_cast<Planner&>(spst) : static_cast<Planner&>(p2p);
    auto plan = planner.Plan(*rel, topo, 512);
    ASSERT_TRUE(plan.ok()) << planner.name();
    ASSERT_TRUE(ValidatePlan(*plan, *rel, topo).ok()) << planner.name();

    CompiledPlan compiled = CompilePlan(*plan, topo);
    AssignBackwardSubstages(compiled);
    std::vector<uint64_t> extras;
    ASSERT_TRUE(ValidateCompiledPlan(compiled, *rel, topo, &extras).ok()) << planner.name();
    // P2P never forwards; SPST may hold extras on relay devices.
    if (!use_spst) {
      for (uint64_t e : extras) {
        EXPECT_EQ(e, 0u);
      }
    }

    // Execute on the threaded runtime and verify delivery of a marker dim.
    auto engine = AllgatherEngine::Create(*rel, compiled, topo);
    ASSERT_TRUE(engine.ok()) << planner.name();
    std::vector<EmbeddingMatrix> local;
    for (uint32_t d = 0; d < rel->num_devices; ++d) {
      const auto& locals = rel->local_vertices[d];
      EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), 2);
      for (uint32_t i = 0; i < locals.size(); ++i) {
        m.Row(i)[0] = static_cast<float>(locals[i]);
        m.Row(i)[1] = static_cast<float>(d);
      }
      local.push_back(std::move(m));
    }
    auto slots = engine->Forward(local);
    ASSERT_TRUE(slots.ok());
    for (uint32_t d = 0; d < rel->num_devices; ++d) {
      const auto& locals = rel->local_vertices[d];
      const auto& remotes = rel->remote_vertices[d];
      for (uint32_t i = 0; i < remotes.size(); ++i) {
        ASSERT_EQ((*slots)[d].Row(locals.size() + i)[0], static_cast<float>(remotes[i]));
        ASSERT_EQ((*slots)[d].Row(locals.size() + i)[1],
                  static_cast<float>(rel->source[remotes[i]]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pipelines, PipelineSweep,
                         ::testing::Values(PipelineParam{2, 1, true}, PipelineParam{4, 2, false},
                                           PipelineParam{8, 3, true}, PipelineParam{8, 4, false},
                                           PipelineParam{16, 5, true},
                                           PipelineParam{16, 6, false}),
                         [](const auto& info) {
                           std::string name = "g";
                           name += std::to_string(info.param.gpus);
                           name += 's';
                           name += std::to_string(info.param.seed);
                           name += info.param.dense ? "dense" : "sparse";
                           return name;
                         });

TEST(IntegrationTest, SimulatedTimeCorrelatesWithEstimate) {
  // Across volume fractions, the cost model estimate and the DES time must be
  // strongly positively correlated (the Figure 10 premise).
  Rng rng(91);
  CsrGraph graph = GenerateRmat({.scale = 10, .num_edges = 10000}, rng);
  Topology topo = BuildPaperTopology(8);
  MultilevelPartitioner metis;
  CommRelation rel = *BuildCommRelation(graph, *metis.Partition(graph, 8));
  SpstPlanner spst;
  CommPlan plan = *spst.Plan(rel, topo, 1024);
  CompiledPlan compiled = CompilePlan(plan, topo);

  std::vector<double> est;
  std::vector<double> act;
  for (double fraction : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const double bytes = 1024.0 * fraction;
    est.push_back(EvaluatePlanCost(plan, topo, bytes));
    NetworkSimOptions opts;
    opts.bytes_per_unit = bytes;
    opts.per_op_latency_s = 0.0;
    act.push_back(SimulateTransfer(compiled, topo, opts).total_seconds);
  }
  // Pearson correlation.
  double mean_e = 0, mean_a = 0;
  for (size_t i = 0; i < est.size(); ++i) {
    mean_e += est[i];
    mean_a += act[i];
  }
  mean_e /= est.size();
  mean_a /= act.size();
  double cov = 0, var_e = 0, var_a = 0;
  for (size_t i = 0; i < est.size(); ++i) {
    cov += (est[i] - mean_e) * (act[i] - mean_a);
    var_e += (est[i] - mean_e) * (est[i] - mean_e);
    var_a += (act[i] - mean_a) * (act[i] - mean_a);
  }
  const double pearson = cov / std::sqrt(var_e * var_a);
  EXPECT_GT(pearson, 0.99);
  // The DES can only be faster than the batch-contention estimate.
  for (size_t i = 0; i < est.size(); ++i) {
    EXPECT_LE(act[i], est[i] * 1.01);
  }
}

TEST(IntegrationTest, SpstBeatsP2POnSimulatorToo) {
  // The win must hold on the independent discrete-event simulator, not just
  // under the planner's own cost model.
  Rng rng(93);
  CsrGraph graph = GenerateRmat({.scale = 11, .num_edges = 20000}, rng);
  Topology topo = BuildPaperTopology(8);
  MultilevelPartitioner metis;
  CommRelation rel = *BuildCommRelation(graph, *metis.Partition(graph, 8));
  SpstPlanner spst;
  PeerToPeerPlanner p2p;
  NetworkSimOptions opts;
  opts.bytes_per_unit = 2048;
  opts.per_op_latency_s = 0.0;
  double t_spst =
      SimulateTransfer(CompilePlan(*spst.Plan(rel, topo, 2048), topo), topo, opts).total_seconds;
  double t_p2p =
      SimulateTransfer(CompilePlan(*p2p.Plan(rel, topo, 2048), topo), topo, opts).total_seconds;
  EXPECT_LT(t_spst, t_p2p);
}

TEST(IntegrationTest, HierarchicalPartitioningReducesNicTraffic) {
  Rng rng(95);
  CsrGraph graph = GenerateCommunityGraph(3000, 8, 10.0, 0.6, rng);
  Topology topo = BuildPaperTopology(16);
  MultilevelPartitioner metis;
  auto hier = PartitionForTopology(graph, topo, metis);
  ASSERT_TRUE(hier.ok());
  RandomPartitioner random(7);
  auto flat = random.Partition(graph, 16);
  ASSERT_TRUE(flat.ok());
  auto nic_units = [&](const Partitioning& parts) {
    CommRelation rel = *BuildCommRelation(graph, parts);
    uint64_t cross = 0;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      DeviceMask mask = rel.dest_mask[v];
      while (mask != 0) {
        uint32_t d = static_cast<uint32_t>(std::countr_zero(mask));
        mask &= mask - 1;
        if (topo.device(d).machine != topo.device(rel.source[v]).machine) {
          ++cross;
        }
      }
    }
    return cross;
  };
  EXPECT_LT(nic_units(*hier), nic_units(*flat) / 2);
}

}  // namespace
}  // namespace dgcl
