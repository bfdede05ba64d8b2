#include "runtime/allgather_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "partition/multilevel.h"
#include "planner/baselines.h"
#include "planner/spst.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct Fixture {
  CsrGraph graph;
  Topology topo;
  Partitioning parts;
  CommRelation relation;
  CompiledPlan plan;

  static Fixture Make(uint32_t gpus, uint32_t vertices, uint64_t seed, bool use_spst,
                      bool split = true) {
    Fixture f;
    Rng rng(seed);
    f.graph = GenerateErdosRenyi(vertices, vertices * 3, rng);
    f.topo = BuildPaperTopology(gpus);
    MultilevelPartitioner metis;
    f.parts = *metis.Partition(f.graph, gpus);
    f.relation = *BuildCommRelation(f.graph, f.parts);
    SpstPlanner spst;
    PeerToPeerPlanner p2p;
    Planner& planner = use_spst ? static_cast<Planner&>(spst) : static_cast<Planner&>(p2p);
    CommPlan comm_plan = *planner.Plan(f.relation, f.topo, 64);
    f.plan = CompilePlan(comm_plan, f.topo);
    if (split) {
      AssignBackwardSubstages(f.plan);
    }
    return f;
  }

  // Embedding value encoding: vertex v, column c -> v * 1000 + c.
  std::vector<EmbeddingMatrix> MakeLocalEmbeddings(uint32_t dim) const {
    std::vector<EmbeddingMatrix> local;
    for (uint32_t d = 0; d < relation.num_devices; ++d) {
      const auto& locals = relation.local_vertices[d];
      EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), dim);
      for (uint32_t i = 0; i < locals.size(); ++i) {
        for (uint32_t c = 0; c < dim; ++c) {
          m.Row(i)[c] = static_cast<float>(locals[i] * 1000 + c);
        }
      }
      local.push_back(std::move(m));
    }
    return local;
  }
};

class EngineSweep : public ::testing::TestWithParam<std::tuple<uint32_t, bool, uint64_t>> {};

TEST_P(EngineSweep, ForwardDeliversExactEmbeddings) {
  const auto [gpus, use_spst, seed] = GetParam();
  Fixture f = Fixture::Make(gpus, 60, seed, use_spst);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  const uint32_t dim = 5;
  auto result = engine->Forward(f.MakeLocalEmbeddings(dim));
  ASSERT_TRUE(result.ok());
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    const auto& locals = f.relation.local_vertices[d];
    const auto& remotes = f.relation.remote_vertices[d];
    const EmbeddingMatrix& m = (*result)[d];
    ASSERT_GE(m.rows, locals.size() + remotes.size());
    for (uint32_t i = 0; i < locals.size(); ++i) {
      for (uint32_t c = 0; c < dim; ++c) {
        ASSERT_EQ(m.Row(i)[c], static_cast<float>(locals[i] * 1000 + c));
      }
    }
    for (uint32_t i = 0; i < remotes.size(); ++i) {
      const uint32_t row = static_cast<uint32_t>(locals.size()) + i;
      for (uint32_t c = 0; c < dim; ++c) {
        ASSERT_EQ(m.Row(row)[c], static_cast<float>(remotes[i] * 1000 + c))
            << "device " << d << " remote " << remotes[i];
      }
    }
  }
}

TEST_P(EngineSweep, BackwardAccumulatesAllContributions) {
  const auto [gpus, use_spst, seed] = GetParam();
  Fixture f = Fixture::Make(gpus, 60, seed, use_spst);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  const uint32_t dim = 3;
  // Gradient encoding: device d contributes (d+1) for every slot it uses.
  std::vector<EmbeddingMatrix> slot_grads;
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    const uint32_t slots = engine->NumContractSlots(d);
    EmbeddingMatrix g = EmbeddingMatrix::Zero(slots, dim);
    for (uint32_t r = 0; r < slots; ++r) {
      for (uint32_t c = 0; c < dim; ++c) {
        g.Row(r)[c] = static_cast<float>(d + 1);
      }
    }
    slot_grads.push_back(std::move(g));
  }
  auto result = engine->Backward(slot_grads);
  ASSERT_TRUE(result.ok());
  // Expected gradient for vertex v: own device (s+1) plus sum of (d+1) over
  // destinations d of v.
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    const auto& locals = f.relation.local_vertices[d];
    for (uint32_t i = 0; i < locals.size(); ++i) {
      float expected = static_cast<float>(d + 1);
      DeviceMask mask = f.relation.dest_mask[locals[i]];
      while (mask != 0) {
        uint32_t dst = static_cast<uint32_t>(std::countr_zero(mask));
        mask &= mask - 1;
        expected += static_cast<float>(dst + 1);
      }
      for (uint32_t c = 0; c < dim; ++c) {
        ASSERT_EQ((*result)[d].Row(i)[c], expected)
            << "vertex " << locals[i] << " on device " << d;
      }
    }
  }

  // Seeded non-integer gradients of mixed magnitude, whose sums depend on
  // the order of the adds: every local row must equal, bit for bit, a serial
  // replay that adds each op's sender row into its receiver row in (stage
  // descending, sub-stage ascending) order.
  Rng rng(seed * 7 + gpus);
  std::vector<EmbeddingMatrix> reference;
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    EmbeddingMatrix& g = slot_grads[d];
    for (float& x : g.data) {
      x = std::ldexp(rng.UniformFloat(-1.0f, 1.0f), static_cast<int>(rng.UniformInt(24)) - 12);
    }
    EmbeddingMatrix full = EmbeddingMatrix::Zero(engine->NumSlots(d), dim);
    std::copy(g.data.begin(), g.data.end(), full.data.begin());
    reference.push_back(std::move(full));
  }
  std::vector<const TransferOp*> order;
  for (const TransferOp& op : engine->plan().ops) {
    order.push_back(&op);
  }
  std::stable_sort(order.begin(), order.end(), [](const TransferOp* a, const TransferOp* b) {
    return a->stage != b->stage ? a->stage > b->stage : a->substage < b->substage;
  });
  for (const TransferOp* op : order) {
    for (VertexId v : op->vertices) {
      float* to = reference[op->src].Row(engine->SlotOf(op->src, v));
      const float* from = reference[op->dst].Row(engine->SlotOf(op->dst, v));
      for (uint32_t c = 0; c < dim; ++c) {
        to[c] += from[c];
      }
    }
  }
  auto mixed = engine->Backward(slot_grads);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    const EmbeddingMatrix& got = (*mixed)[d];
    ASSERT_EQ(got.data.size(), f.relation.local_vertices[d].size() * dim);
    EXPECT_EQ(std::memcmp(got.data.data(), reference[d].data.data(),
                          got.data.size() * sizeof(float)),
              0)
        << "device " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EngineSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u), ::testing::Bool(),
                       ::testing::Values(101u, 202u)),
    [](const auto& info) {
      return "gpus" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "spst" : "p2p") + "s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(AllgatherEngineTest, RepeatedPassesAreIdempotent) {
  Fixture f = Fixture::Make(4, 40, 55, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  auto local = f.MakeLocalEmbeddings(4);
  auto first = engine->Forward(local);
  auto second = engine->Forward(local);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    EXPECT_EQ((*first)[d].data, (*second)[d].data);
  }
}

TEST(AllgatherEngineTest, RejectsWrongRowCounts) {
  Fixture f = Fixture::Make(2, 20, 66, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  auto local = f.MakeLocalEmbeddings(4);
  local[0].rows -= 1;  // corrupt
  EXPECT_FALSE(engine->Forward(local).ok());
}

TEST(AllgatherEngineTest, RejectsInconsistentDims) {
  Fixture f = Fixture::Make(2, 20, 67, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  auto local = f.MakeLocalEmbeddings(4);
  local[1] = EmbeddingMatrix::Zero(local[1].rows, 8);
  EXPECT_FALSE(engine->Forward(local).ok());
}

// A matrix whose data holds fewer (or more) floats than rows * dim is
// rejected before any device reads it; the short case would otherwise copy
// past the end of the vector.
TEST(AllgatherEngineTest, ForwardRejectsShortData) {
  Fixture f = Fixture::Make(2, 20, 70, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  for (int delta : {-1, -4, 1}) {
    auto local = f.MakeLocalEmbeddings(4);
    ASSERT_GT(local[1].rows, 0u);
    local[1].data.resize(local[1].data.size() + delta);
    auto out = engine->Forward(local);
    ASSERT_FALSE(out.ok()) << "delta " << delta;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << out.status().ToString();
  }
  EXPECT_TRUE(engine->Forward(f.MakeLocalEmbeddings(4)).ok());
}

TEST(AllgatherEngineTest, BackwardRejectsShortData) {
  Fixture f = Fixture::Make(2, 20, 71, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  auto grads = [&] {
    std::vector<EmbeddingMatrix> g;
    for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
      g.push_back(EmbeddingMatrix::Zero(engine->NumContractSlots(d), 4));
    }
    return g;
  };
  for (int delta : {-1, -4, 1}) {
    auto slot_grads = grads();
    slot_grads[0].data.resize(slot_grads[0].data.size() + delta);
    auto out = engine->Backward(slot_grads);
    ASSERT_FALSE(out.ok()) << "delta " << delta;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << out.status().ToString();
  }
  EXPECT_TRUE(engine->Backward(grads()).ok());
}

TEST(AllgatherEngineTest, RejectsBrokenPlan) {
  Fixture f = Fixture::Make(4, 40, 68, false);
  ASSERT_FALSE(f.plan.ops.empty());
  f.plan.ops.front().vertices.pop_back();  // undelivered vertex
  EXPECT_FALSE(AllgatherEngine::Create(f.relation, f.plan, f.topo).ok());
}

// An unsplit plan in which a device sends one vertex to two peers in a
// stage would have both peers add its gradient into that device's row at
// once in the backward pass; Create refuses it, and arms the split plan.
TEST(AllgatherEngineTest, RejectsUnsplitPlanWithCollidingAdds) {
  Fixture f = Fixture::Make(8, 60, 303, /*use_spst=*/true, /*split=*/false);
  CompiledPlan split = f.plan;
  AssignBackwardSubstages(split);
  ASSERT_GT(split.MaxSubstages(), 1u) << "the plan needs a vertex sent to two peers in a stage";
  ASSERT_TRUE(ValidateCompiledPlan(f.plan, f.relation, f.topo).ok());
  auto unsplit = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  EXPECT_EQ(unsplit.status().code(), StatusCode::kInvalidArgument) << unsplit.status().ToString();
  EXPECT_TRUE(AllgatherEngine::Create(f.relation, split, f.topo).ok());
}

TEST(AllgatherEngineTest, SlotLayoutLocalsFirst) {
  Fixture f = Fixture::Make(4, 40, 69, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  for (uint32_t d = 0; d < 4; ++d) {
    const auto& locals = f.relation.local_vertices[d];
    for (uint32_t i = 0; i < locals.size(); ++i) {
      EXPECT_EQ(engine->SlotOf(d, locals[i]), i);
    }
    const auto& remotes = f.relation.remote_vertices[d];
    for (uint32_t i = 0; i < remotes.size(); ++i) {
      EXPECT_EQ(engine->SlotOf(d, remotes[i]), locals.size() + i);
    }
  }
}

}  // namespace
}  // namespace dgcl
