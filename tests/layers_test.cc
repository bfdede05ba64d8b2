#include "gnn/layers.h"

#include <bit>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "comm/relation.h"
#include "graph/generators.h"
#include "kernel_tables.h"
#include "partition/partitioner.h"

namespace dgcl {
namespace {

LocalGraph TriangleGraph() {
  auto g = CsrGraph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}}, true);
  return FullLocalGraph(*g);
}

TEST(AggregateTest, MeanWithSelfOnTriangle) {
  LocalGraph lg = TriangleGraph();
  EmbeddingMatrix h = EmbeddingMatrix::Zero(3, 1);
  h.Row(0)[0] = 3.0f;
  h.Row(1)[0] = 6.0f;
  h.Row(2)[0] = 9.0f;
  EmbeddingMatrix agg = AggregateMeanWithSelf(lg, h);
  // Every vertex sees all three values: mean 6.
  EXPECT_FLOAT_EQ(agg.Row(0)[0], 6.0f);
  EXPECT_FLOAT_EQ(agg.Row(1)[0], 6.0f);
  EXPECT_FLOAT_EQ(agg.Row(2)[0], 6.0f);
}

// The seed's plain loop, kept verbatim as the reference of the kernel
// contract: the fixed-width bodies must add each row's terms in this order.
EmbeddingMatrix ReferenceAggregateMeanWithSelf(const LocalGraph& graph,
                                               const EmbeddingMatrix& slots) {
  EmbeddingMatrix out = EmbeddingMatrix::Zero(graph.num_compute, slots.dim);
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    float* orow = out.Row(i);
    const float* self = slots.Row(i);
    auto nbrs = graph.Neighbors(i);
    for (uint32_t c = 0; c < slots.dim; ++c) {
      orow[c] = self[c];
    }
    for (uint32_t nbr : nbrs) {
      const float* nrow = slots.Row(nbr);
      for (uint32_t c = 0; c < slots.dim; ++c) {
        orow[c] += nrow[c];
      }
    }
    const float inv = 1.0f / (1.0f + nbrs.size());
    for (uint32_t c = 0; c < slots.dim; ++c) {
      orow[c] *= inv;
    }
  }
  return out;
}

// A device-style local graph: `compute` local rows reading `compute + remote`
// slots, with every fourth row isolated and the rest of degree 1..40.
LocalGraph RandomLocalGraph(uint32_t compute, uint32_t remote, Rng& rng) {
  LocalGraph g;
  g.num_compute = compute;
  g.num_slots = compute + remote;
  g.offsets.push_back(0);
  for (uint32_t i = 0; i < compute; ++i) {
    const uint64_t degree = i % 4 == 1 ? 0 : 1 + rng.UniformInt(40);
    for (uint64_t e = 0; e < degree; ++e) {
      g.nbr_slots.push_back(static_cast<uint32_t>(rng.UniformInt(g.num_slots)));
    }
    g.offsets.push_back(g.nbr_slots.size());
  }
  return g;
}

// Row counts of the bitwise sweeps: small graphs, tails around the wide
// bodies' vector widths, and one large graph.
constexpr uint32_t kContractRows[] = {0, 1, 2, 3, 5, 7, 9, 15, 17, 33, 1031};

// On every kernel table this CPU supports.
TEST(AggregateTest, MeanWithSelfMatchesPlainLoopBitwise) {
  Rng rng(43);
  for (uint32_t rows : kContractRows) {
    const LocalGraph g = RandomLocalGraph(rows, rows / 2 + 1, rng);
    for (uint32_t width : {1u, 3u, 8u, 16u, 17u, 64u}) {
      EmbeddingMatrix slots = EmbeddingMatrix::Zero(g.num_slots, width);
      for (float& x : slots.data) {
        const uint64_t pick = rng.UniformInt(8);
        x = pick < 2 ? 0.0f : pick == 2 ? -0.0f : static_cast<float>(rng.Normal());
      }
      const EmbeddingMatrix want = ReferenceAggregateMeanWithSelf(g, slots);
      ForEachKernelTable([&](const std::string& table) {
        const EmbeddingMatrix got = AggregateMeanWithSelf(g, slots);
        ASSERT_EQ(got.rows, want.rows);
        ASSERT_EQ(got.dim, want.dim);
        // Bit patterns: an isolated row of -0s must stay -0.
        for (size_t i = 0; i < got.data.size(); ++i) {
          ASSERT_EQ(std::bit_cast<uint32_t>(got.data[i]), std::bit_cast<uint32_t>(want.data[i]))
              << table << ": " << rows << " rows, width " << width << ", element " << i;
        }
      });
    }
  }
}

// The seed's push loop, kept verbatim as the reference of the pull form:
// every slot must get its terms in this order, from +0.
EmbeddingMatrix ReferenceScatterMeanWithSelfBackward(const LocalGraph& graph,
                                                     const EmbeddingMatrix& grad_agg) {
  EmbeddingMatrix out = EmbeddingMatrix::Zero(graph.num_slots, grad_agg.dim);
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    const float* grow = grad_agg.Row(i);
    auto nbrs = graph.Neighbors(i);
    const float inv = 1.0f / (1.0f + nbrs.size());
    float* self = out.Row(i);
    for (uint32_t c = 0; c < grad_agg.dim; ++c) {
      self[c] += grow[c] * inv;
    }
    for (uint32_t nbr : nbrs) {
      float* nrow = out.Row(nbr);
      for (uint32_t c = 0; c < grad_agg.dim; ++c) {
        nrow[c] += grow[c] * inv;
      }
    }
  }
  return out;
}

// With readers built (as BuildLocalGraph does) and without (built per call),
// on graphs with remote slots, repeated neighbors and isolated rows, on
// every kernel table this CPU supports.
TEST(ScatterTest, MeanWithSelfMatchesPushLoopBitwise) {
  Rng rng(47);
  for (uint32_t rows : kContractRows) {
    LocalGraph g = RandomLocalGraph(rows, rows / 2 + 1, rng);
    for (bool readers : {false, true}) {
      if (readers) {
        BuildReaders(g);
      }
      for (uint32_t width : {1u, 3u, 8u, 16u, 17u, 64u}) {
        EmbeddingMatrix grad = EmbeddingMatrix::Zero(g.num_compute, width);
        for (float& x : grad.data) {
          const uint64_t pick = rng.UniformInt(8);
          x = pick < 2 ? 0.0f : pick == 2 ? -0.0f : static_cast<float>(rng.Normal());
        }
        const EmbeddingMatrix want = ReferenceScatterMeanWithSelfBackward(g, grad);
        ForEachKernelTable([&](const std::string& table) {
          const EmbeddingMatrix got = ScatterMeanWithSelfBackward(g, grad);
          ASSERT_EQ(got.rows, want.rows);
          ASSERT_EQ(got.dim, want.dim);
          for (size_t i = 0; i < got.data.size(); ++i) {
            ASSERT_EQ(std::bit_cast<uint32_t>(got.data[i]),
                      std::bit_cast<uint32_t>(want.data[i]))
                << table << ": " << rows << " rows, width " << width << ", readers " << readers
                << ", element " << i;
          }
        });
      }
    }
  }
}

TEST(AggregateTest, MeanNeighborsExcludesSelf) {
  LocalGraph lg = TriangleGraph();
  EmbeddingMatrix h = EmbeddingMatrix::Zero(3, 1);
  h.Row(0)[0] = 3.0f;
  h.Row(1)[0] = 6.0f;
  h.Row(2)[0] = 9.0f;
  EmbeddingMatrix agg = AggregateMeanNeighbors(lg, h);
  EXPECT_FLOAT_EQ(agg.Row(0)[0], 7.5f);  // (6+9)/2
  EXPECT_FLOAT_EQ(agg.Row(1)[0], 6.0f);  // (3+9)/2
}

TEST(AggregateTest, SumNeighbors) {
  LocalGraph lg = TriangleGraph();
  EmbeddingMatrix h = EmbeddingMatrix::Zero(3, 1);
  h.Row(0)[0] = 1.0f;
  h.Row(1)[0] = 2.0f;
  h.Row(2)[0] = 4.0f;
  EmbeddingMatrix agg = AggregateSumNeighbors(lg, h);
  EXPECT_FLOAT_EQ(agg.Row(0)[0], 6.0f);
  EXPECT_FLOAT_EQ(agg.Row(2)[0], 3.0f);
}

TEST(AggregateTest, IsolatedVertexGetsZeroNeighborAggregate) {
  auto g = CsrGraph::FromEdges(3, {{0, 1}}, true);
  LocalGraph lg = FullLocalGraph(*g);
  EmbeddingMatrix h = EmbeddingMatrix::Zero(3, 2);
  h.Row(2)[0] = 5.0f;
  EmbeddingMatrix mean = AggregateMeanNeighbors(lg, h);
  EXPECT_FLOAT_EQ(mean.Row(2)[0], 0.0f);
  EmbeddingMatrix self_mean = AggregateMeanWithSelf(lg, h);
  EXPECT_FLOAT_EQ(self_mean.Row(2)[0], 5.0f);  // only itself
}

// Scatter ops are the exact adjoints of the aggregations: <Ag, y> == <g, A^T y>.
TEST(ScatterTest, AdjointProperty) {
  Rng rng(11);
  CsrGraph g = GenerateErdosRenyi(30, 90, rng);
  LocalGraph lg = FullLocalGraph(g);
  const uint32_t dim = 4;
  EmbeddingMatrix x = RandomWeights(lg.num_slots, dim, rng);
  EmbeddingMatrix y = RandomWeights(lg.num_compute, dim, rng);
  auto dot = [](const EmbeddingMatrix& a, const EmbeddingMatrix& b) {
    double s = 0.0;
    for (size_t i = 0; i < a.data.size(); ++i) {
      s += static_cast<double>(a.data[i]) * b.data[i];
    }
    return s;
  };
  {
    EmbeddingMatrix ax = AggregateMeanWithSelf(lg, x);
    EmbeddingMatrix aty = ScatterMeanWithSelfBackward(lg, y);
    EXPECT_NEAR(dot(ax, y), dot(x, aty), 1e-3);
  }
  {
    EmbeddingMatrix ax = AggregateMeanNeighbors(lg, x);
    EmbeddingMatrix aty = ScatterMeanNeighborsBackward(lg, y);
    EXPECT_NEAR(dot(ax, y), dot(x, aty), 1e-3);
  }
  {
    EmbeddingMatrix ax = AggregateSumNeighbors(lg, x);
    EmbeddingMatrix aty = ScatterSumNeighborsBackward(lg, y);
    EXPECT_NEAR(dot(ax, y), dot(x, aty), 1e-3);
  }
}

// Finite-difference check of the full layer backward for every model.
class LayerGradSweep : public ::testing::TestWithParam<GnnModel> {};

TEST_P(LayerGradSweep, InputGradientMatchesFiniteDifference) {
  Rng rng(13);
  CsrGraph g = GenerateErdosRenyi(10, 20, rng);
  LocalGraph lg = FullLocalGraph(g);
  const uint32_t dim_in = 3;
  const uint32_t dim_out = 2;
  Rng wrng(17);
  auto layer = MakeLayer(GetParam(), dim_in, dim_out, wrng);
  EmbeddingMatrix x = RandomWeights(lg.num_slots, dim_in, rng);

  // Scalar objective: sum of outputs weighted by fixed random coefficients.
  EmbeddingMatrix coeff = RandomWeights(lg.num_compute, dim_out, rng);
  auto objective = [&](const EmbeddingMatrix& input) {
    Rng fresh(17);
    auto probe = MakeLayer(GetParam(), dim_in, dim_out, fresh);  // same weights
    EmbeddingMatrix out = probe->Forward(lg, input);
    double s = 0.0;
    for (size_t i = 0; i < out.data.size(); ++i) {
      s += static_cast<double>(out.data[i]) * coeff.data[i];
    }
    return s;
  };

  layer->Forward(lg, x);
  EmbeddingMatrix dx = layer->Backward(lg, coeff);
  ASSERT_EQ(dx.rows, lg.num_slots);

  const double eps = 1e-2;
  int checked = 0;
  for (uint32_t r = 0; r < dx.rows && checked < 12; ++r) {
    for (uint32_t c = 0; c < dim_in && checked < 12; ++c) {
      EmbeddingMatrix plus = x;
      plus.Row(r)[c] += eps;
      EmbeddingMatrix minus = x;
      minus.Row(r)[c] -= eps;
      const double num = (objective(plus) - objective(minus)) / (2 * eps);
      EXPECT_NEAR(dx.Row(r)[c], num, 5e-2 + 0.05 * std::abs(num))
          << "model " << GnnModelName(GetParam()) << " r=" << r << " c=" << c;
      ++checked;
    }
  }
}

TEST_P(LayerGradSweep, StepReducesObjectiveOnToyProblem) {
  // One layer + fixed target: repeated (forward, backward, step) must reduce
  // squared error.
  Rng rng(19);
  CsrGraph g = GenerateErdosRenyi(12, 30, rng);
  LocalGraph lg = FullLocalGraph(g);
  Rng wrng(23);
  auto layer = MakeLayer(GetParam(), 4, 3, wrng);
  EmbeddingMatrix x = RandomWeights(lg.num_slots, 4, rng);
  EmbeddingMatrix target = RandomWeights(lg.num_compute, 3, rng);
  for (float& t : target.data) {
    t = std::abs(t) + 0.1f;  // reachable through ReLU
  }
  auto loss_and_grad = [&](EmbeddingMatrix& grad) {
    EmbeddingMatrix out = layer->Forward(lg, x);
    grad = EmbeddingMatrix::Zero(out.rows, out.dim);
    double loss = 0.0;
    for (size_t i = 0; i < out.data.size(); ++i) {
      const float diff = out.data[i] - target.data[i];
      loss += 0.5 * diff * diff;
      grad.data[i] = diff;
    }
    return loss;
  };
  EmbeddingMatrix grad;
  const double initial = loss_and_grad(grad);
  double final_loss = initial;
  // Attention layers need a gentler, longer descent on this toy objective.
  const bool gat = GetParam() == GnnModel::kGat;
  const float lr = gat ? 0.002f : 0.005f;
  const int iterations = gat ? 1500 : 300;
  for (int iter = 0; iter < iterations; ++iter) {
    final_loss = loss_and_grad(grad);
    layer->Backward(lg, grad);
    layer->Step(lr);
  }
  EXPECT_LT(final_loss, initial * 0.7) << GnnModelName(GetParam());
}

// The trainer runs layer 0's backward parameter-gradients-only (the input
// gradient is never consumed). It must leave Grads() bitwise equal to the
// full Backward, also when accumulating on top of an earlier step, and on a
// partitioned device graph whose remote slots have no rows of their own.
TEST_P(LayerGradSweep, ParamsOnlyBackwardMatchesFullBackwardGrads) {
  Rng rng(31);
  CsrGraph g = GenerateErdosRenyi(40, 120, rng);
  HashPartitioner hash;
  CommRelation relation = *BuildCommRelation(g, *hash.Partition(g, 2));
  LocalGraph lg = BuildLocalGraph(g, relation, 0);
  ASSERT_GT(lg.num_slots, lg.num_compute);
  const uint32_t dim_in = 5;
  const uint32_t dim_out = 3;
  Rng full_rng(37);
  Rng params_rng(37);
  auto full = MakeLayer(GetParam(), dim_in, dim_out, full_rng);
  auto params_only = MakeLayer(GetParam(), dim_in, dim_out, params_rng);
  for (int step = 0; step < 2; ++step) {
    EmbeddingMatrix x = RandomWeights(lg.num_slots, dim_in, rng);
    EmbeddingMatrix grad = RandomWeights(lg.num_compute, dim_out, rng);
    full->Forward(lg, x);
    params_only->Forward(lg, x);
    full->Backward(lg, grad);
    params_only->BackwardParamsOnly(lg, grad);
    const std::vector<EmbeddingMatrix*> want = full->Grads();
    const std::vector<EmbeddingMatrix*> got = params_only->Grads();
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i]->data, got[i]->data)
          << GnnModelName(GetParam()) << " grad " << i << " step " << step;
    }
    full->Step(0.1f);
    params_only->Step(0.1f);
  }
}

// The trainer sets layer 0's input once and then only runs Update. SetInput
// followed by Update must be Forward exactly: same output and, after
// Backward, the same gradients. The kept input must outlive the slots it came
// from and stay valid across Steps: every later Update equals a fresh Forward
// on the same slots with the stepped weights.
TEST_P(LayerGradSweep, SetInputThenUpdateMatchesForward) {
  Rng rng(41);
  CsrGraph g = GenerateErdosRenyi(40, 120, rng);
  HashPartitioner hash;
  CommRelation relation = *BuildCommRelation(g, *hash.Partition(g, 2));
  LocalGraph lg = BuildLocalGraph(g, relation, 0);
  ASSERT_GT(lg.num_slots, lg.num_compute);
  const uint32_t dim_in = 5;
  const uint32_t dim_out = 3;
  Rng forward_rng(43);
  Rng split_rng(43);
  auto forward = MakeLayer(GetParam(), dim_in, dim_out, forward_rng);
  auto split = MakeLayer(GetParam(), dim_in, dim_out, split_rng);
  const EmbeddingMatrix x = RandomWeights(lg.num_slots, dim_in, rng);
  split->SetInput(lg, EmbeddingMatrix(x));  // the temporary dies here
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE(std::string(GnnModelName(GetParam())) + " step " + std::to_string(step));
    const EmbeddingMatrix want = forward->Forward(lg, x);
    const EmbeddingMatrix got = split->Update(lg);
    EXPECT_EQ(got.rows, want.rows);
    EXPECT_EQ(got.data, want.data);
    EmbeddingMatrix grad = RandomWeights(lg.num_compute, dim_out, rng);
    EXPECT_EQ(split->Backward(lg, grad).data, forward->Backward(lg, grad).data);
    const std::vector<EmbeddingMatrix*> want_grads = forward->Grads();
    const std::vector<EmbeddingMatrix*> got_grads = split->Grads();
    ASSERT_EQ(want_grads.size(), got_grads.size());
    for (size_t i = 0; i < want_grads.size(); ++i) {
      EXPECT_EQ(want_grads[i]->data, got_grads[i]->data) << "grad " << i;
    }
    forward->Step(0.1f);
    split->Step(0.1f);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, LayerGradSweep,
                         ::testing::Values(GnnModel::kGcn, GnnModel::kCommNet, GnnModel::kGin,
                                           GnnModel::kGat),
                         [](const auto& info) { return GnnModelName(info.param); });

TEST(LayerTest, ParamsAndGradsAligned) {
  Rng rng(29);
  for (GnnModel m :
       {GnnModel::kGcn, GnnModel::kCommNet, GnnModel::kGin, GnnModel::kGat}) {
    auto layer = MakeLayer(m, 4, 4, rng);
    auto params = layer->Params();
    auto grads = layer->Grads();
    ASSERT_EQ(params.size(), grads.size());
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(params[i]->rows, grads[i]->rows);
      EXPECT_EQ(params[i]->dim, grads[i]->dim);
    }
  }
}

}  // namespace
}  // namespace dgcl
