#include "gnn/layers.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "gnn/kernel_isa.h"

namespace dgcl {

EmbeddingMatrix AggregateMeanWithSelf(const LocalGraph& graph, const EmbeddingMatrix& slots) {
  DGCL_CHECK_EQ(slots.rows, graph.num_slots);
  EmbeddingMatrix out = EmbeddingMatrix::Zero(graph.num_compute, slots.dim);
  switch (slots.dim) {
    case 16:
      ActiveKernels().aggregate_mean_with_self16(graph, slots.data.data(), out.data.data());
      return out;
    case 8:
      ActiveKernels().aggregate_mean_with_self8(graph, slots.data.data(), out.data.data());
      return out;
    default:
      break;
  }
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    float* orow = out.Row(i);
    const float* self = slots.Row(i);  // local vertex i occupies slot i
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

EmbeddingMatrix AggregateMeanNeighbors(const LocalGraph& graph, const EmbeddingMatrix& slots) {
  DGCL_CHECK_EQ(slots.rows, graph.num_slots);
  EmbeddingMatrix out = EmbeddingMatrix::Zero(graph.num_compute, slots.dim);
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    auto nbrs = graph.Neighbors(i);
    if (nbrs.empty()) {
      continue;
    }
    float* orow = out.Row(i);
    for (uint32_t nbr : nbrs) {
      const float* nrow = slots.Row(nbr);
      for (uint32_t c = 0; c < slots.dim; ++c) {
        orow[c] += nrow[c];
      }
    }
    const float inv = 1.0f / nbrs.size();
    for (uint32_t c = 0; c < slots.dim; ++c) {
      orow[c] *= inv;
    }
  }
  return out;
}

EmbeddingMatrix AggregateSumNeighbors(const LocalGraph& graph, const EmbeddingMatrix& slots) {
  DGCL_CHECK_EQ(slots.rows, graph.num_slots);
  EmbeddingMatrix out = EmbeddingMatrix::Zero(graph.num_compute, slots.dim);
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    float* orow = out.Row(i);
    for (uint32_t nbr : graph.Neighbors(i)) {
      const float* nrow = slots.Row(nbr);
      for (uint32_t c = 0; c < slots.dim; ++c) {
        orow[c] += nrow[c];
      }
    }
  }
  return out;
}

EmbeddingMatrix ScatterMeanWithSelfBackward(const LocalGraph& graph, EmbeddingMatrix grad_agg) {
  DGCL_CHECK_EQ(grad_agg.rows, graph.num_compute);
  // Row i's gradient reaches each slot it read as grad_agg[i] / (1 + deg(i)).
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    float* grow = grad_agg.Row(i);
    const float inv = 1.0f / (1.0f + graph.Neighbors(i).size());
    for (uint32_t c = 0; c < grad_agg.dim; ++c) {
      grow[c] *= inv;
    }
  }
  std::optional<LocalGraph> with_readers;
  if (!graph.HasReaders()) {
    with_readers = graph;
    BuildReaders(*with_readers);
  }
  const LocalGraph& g = with_readers ? *with_readers : graph;
  EmbeddingMatrix out = EmbeddingMatrix::Zero(graph.num_slots, grad_agg.dim);
  switch (grad_agg.dim) {
    case 16:
      ActiveKernels().sum_readers16(g, grad_agg.data.data(), out.data.data());
      return out;
    case 8:
      ActiveKernels().sum_readers8(g, grad_agg.data.data(), out.data.data());
      return out;
    default:
      break;
  }
  for (uint32_t s = 0; s < g.num_slots; ++s) {
    float* orow = out.Row(s);
    for (uint32_t i : g.Readers(s)) {
      const float* grow = grad_agg.Row(i);
      for (uint32_t c = 0; c < grad_agg.dim; ++c) {
        orow[c] += grow[c];
      }
    }
  }
  return out;
}

EmbeddingMatrix ScatterMeanNeighborsBackward(const LocalGraph& graph,
                                             const EmbeddingMatrix& grad_agg) {
  DGCL_CHECK_EQ(grad_agg.rows, graph.num_compute);
  EmbeddingMatrix out = EmbeddingMatrix::Zero(graph.num_slots, grad_agg.dim);
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    auto nbrs = graph.Neighbors(i);
    if (nbrs.empty()) {
      continue;
    }
    const float* grow = grad_agg.Row(i);
    const float inv = 1.0f / nbrs.size();
    for (uint32_t nbr : nbrs) {
      float* nrow = out.Row(nbr);
      for (uint32_t c = 0; c < grad_agg.dim; ++c) {
        nrow[c] += grow[c] * inv;
      }
    }
  }
  return out;
}

EmbeddingMatrix ScatterSumNeighborsBackward(const LocalGraph& graph,
                                            const EmbeddingMatrix& grad_agg) {
  DGCL_CHECK_EQ(grad_agg.rows, graph.num_compute);
  EmbeddingMatrix out = EmbeddingMatrix::Zero(graph.num_slots, grad_agg.dim);
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    const float* grow = grad_agg.Row(i);
    for (uint32_t nbr : graph.Neighbors(i)) {
      float* nrow = out.Row(nbr);
      for (uint32_t c = 0; c < grad_agg.dim; ++c) {
        nrow[c] += grow[c];
      }
    }
  }
  return out;
}

namespace {

// Shared parameter container: weight + bias + their gradients. The bias is a
// 1-row matrix so it participates in cross-device gradient reduction through
// the same Params()/Grads() channel as the weights.
struct Linear {
  EmbeddingMatrix w;
  EmbeddingMatrix b;
  EmbeddingMatrix dw;
  EmbeddingMatrix db;

  Linear(uint32_t in, uint32_t out, Rng& rng)
      : w(RandomWeights(in, out, rng)),
        b(EmbeddingMatrix::Zero(1, out)),
        dw(EmbeddingMatrix::Zero(in, out)),
        db(EmbeddingMatrix::Zero(1, out)) {}

  // out = x * w + b
  EmbeddingMatrix Forward(const EmbeddingMatrix& x) const {
    EmbeddingMatrix out;
    Gemm(x, w, out);
    AddRowVectorInPlace(out, b.data);
    return out;
  }

  // Accumulates dw/db.
  void AccumulateGrads(const EmbeddingMatrix& x, const EmbeddingMatrix& dout) {
    EmbeddingMatrix dw_now;
    GemmTransposeA(x, dout, dw_now);
    AddInPlace(dw, dw_now);
    std::vector<float> db_now = ColumnSums(dout);
    for (uint32_t c = 0; c < db_now.size(); ++c) {
      db.data[c] += db_now[c];
    }
  }

  // dx = dout * w^T.
  EmbeddingMatrix InputGrad(const EmbeddingMatrix& dout) const {
    EmbeddingMatrix dx;
    GemmTransposeB(dout, w, dx);
    return dx;
  }

  void Step(float lr) {
    for (size_t i = 0; i < w.data.size(); ++i) {
      w.data[i] -= lr * dw.data[i];
    }
    for (size_t i = 0; i < b.data.size(); ++i) {
      b.data[i] -= lr * db.data[i];
    }
    std::fill(dw.data.begin(), dw.data.end(), 0.0f);
    std::fill(db.data.begin(), db.data.end(), 0.0f);
  }
};

class GcnLayer final : public GnnLayer {
 public:
  GcnLayer(uint32_t dim_in, uint32_t dim_out, Rng& rng) : linear_(dim_in, dim_out, rng) {}

  void SetInput(const LocalGraph& graph, const EmbeddingMatrix& slots) override {
    agg_ = AggregateMeanWithSelf(graph, slots);
  }

  EmbeddingMatrix Update(const LocalGraph& /*graph*/) override {
    EmbeddingMatrix out = linear_.Forward(agg_);
    ReluInPlace(out, mask_);
    return out;
  }

  void Step(float lr) override { linear_.Step(lr); }
  std::vector<EmbeddingMatrix*> Params() override { return {&linear_.w, &linear_.b}; }
  std::vector<EmbeddingMatrix*> Grads() override { return {&linear_.dw, &linear_.db}; }
  uint32_t dim_in() const override { return linear_.w.rows; }
  uint32_t dim_out() const override { return linear_.w.dim; }

 private:
  EmbeddingMatrix BackwardImpl(const LocalGraph& graph, const EmbeddingMatrix& grad_out,
                               bool input_grad) override {
    EmbeddingMatrix dz = grad_out;
    ReluBackwardInPlace(dz, mask_);
    linear_.AccumulateGrads(agg_, dz);
    if (!input_grad) {
      return {};
    }
    return ScatterMeanWithSelfBackward(graph, linear_.InputGrad(dz));
  }

  Linear linear_;
  EmbeddingMatrix agg_;
  EmbeddingMatrix mask_;
};

class CommNetLayer final : public GnnLayer {
 public:
  CommNetLayer(uint32_t dim_in, uint32_t dim_out, Rng& rng)
      : self_(dim_in, dim_out, rng), comm_(dim_in, dim_out, rng) {}

  void SetInput(const LocalGraph& graph, const EmbeddingMatrix& slots) override {
    // Cache the local rows (slot prefix) and the neighbor mean.
    locals_ = EmbeddingMatrix::Zero(graph.num_compute, slots.dim);
    for (uint32_t i = 0; i < graph.num_compute; ++i) {
      std::copy(slots.Row(i), slots.Row(i) + slots.dim, locals_.Row(i));
    }
    agg_ = AggregateMeanNeighbors(graph, slots);
  }

  EmbeddingMatrix Update(const LocalGraph& /*graph*/) override {
    EmbeddingMatrix out = self_.Forward(locals_);
    EmbeddingMatrix comm_out = comm_.Forward(agg_);
    AddInPlace(out, comm_out);
    ReluInPlace(out, mask_);
    return out;
  }

  void Step(float lr) override {
    self_.Step(lr);
    comm_.Step(lr);
  }
  std::vector<EmbeddingMatrix*> Params() override { return {&self_.w, &self_.b, &comm_.w, &comm_.b}; }
  std::vector<EmbeddingMatrix*> Grads() override { return {&self_.dw, &self_.db, &comm_.dw, &comm_.db}; }
  uint32_t dim_in() const override { return self_.w.rows; }
  uint32_t dim_out() const override { return self_.w.dim; }

 private:
  EmbeddingMatrix BackwardImpl(const LocalGraph& graph, const EmbeddingMatrix& grad_out,
                               bool input_grad) override {
    EmbeddingMatrix dz = grad_out;
    ReluBackwardInPlace(dz, mask_);
    self_.AccumulateGrads(locals_, dz);
    comm_.AccumulateGrads(agg_, dz);
    if (!input_grad) {
      return {};
    }
    EmbeddingMatrix dlocal = self_.InputGrad(dz);
    EmbeddingMatrix dslots = ScatterMeanNeighborsBackward(graph, comm_.InputGrad(dz));
    for (uint32_t i = 0; i < graph.num_compute; ++i) {
      float* row = dslots.Row(i);
      const float* lrow = dlocal.Row(i);
      for (uint32_t c = 0; c < dslots.dim; ++c) {
        row[c] += lrow[c];
      }
    }
    return dslots;
  }

  Linear self_;
  Linear comm_;
  EmbeddingMatrix locals_;
  EmbeddingMatrix agg_;
  EmbeddingMatrix mask_;
};

class GinLayer final : public GnnLayer {
 public:
  GinLayer(uint32_t dim_in, uint32_t dim_out, Rng& rng)
      : mlp1_(dim_in, dim_out, rng), mlp2_(dim_out, dim_out, rng) {}

  void SetInput(const LocalGraph& graph, const EmbeddingMatrix& slots) override {
    sum_input_ = AggregateSumNeighbors(graph, slots);
    for (uint32_t i = 0; i < graph.num_compute; ++i) {
      float* row = sum_input_.Row(i);
      const float* self = slots.Row(i);
      for (uint32_t c = 0; c < sum_input_.dim; ++c) {
        row[c] += (1.0f + kEps) * self[c];
      }
    }
  }

  EmbeddingMatrix Update(const LocalGraph& /*graph*/) override {
    hidden_ = mlp1_.Forward(sum_input_);
    ReluInPlace(hidden_, mask1_);
    EmbeddingMatrix out = mlp2_.Forward(hidden_);
    ReluInPlace(out, mask2_);
    return out;
  }

  void Step(float lr) override {
    mlp1_.Step(lr);
    mlp2_.Step(lr);
  }
  std::vector<EmbeddingMatrix*> Params() override { return {&mlp1_.w, &mlp1_.b, &mlp2_.w, &mlp2_.b}; }
  std::vector<EmbeddingMatrix*> Grads() override { return {&mlp1_.dw, &mlp1_.db, &mlp2_.dw, &mlp2_.db}; }
  uint32_t dim_in() const override { return mlp1_.w.rows; }
  uint32_t dim_out() const override { return mlp2_.w.dim; }

 private:
  EmbeddingMatrix BackwardImpl(const LocalGraph& graph, const EmbeddingMatrix& grad_out,
                               bool input_grad) override {
    EmbeddingMatrix dz2 = grad_out;
    ReluBackwardInPlace(dz2, mask2_);
    mlp2_.AccumulateGrads(hidden_, dz2);
    EmbeddingMatrix dhidden = mlp2_.InputGrad(dz2);
    ReluBackwardInPlace(dhidden, mask1_);
    mlp1_.AccumulateGrads(sum_input_, dhidden);
    if (!input_grad) {
      return {};
    }
    EmbeddingMatrix dsum = mlp1_.InputGrad(dhidden);
    EmbeddingMatrix dslots = ScatterSumNeighborsBackward(graph, dsum);
    for (uint32_t i = 0; i < graph.num_compute; ++i) {
      float* row = dslots.Row(i);
      const float* srow = dsum.Row(i);
      for (uint32_t c = 0; c < dslots.dim; ++c) {
        row[c] += (1.0f + kEps) * srow[c];
      }
    }
    return dslots;
  }

  static constexpr float kEps = 0.1f;

  Linear mlp1_;
  Linear mlp2_;
  EmbeddingMatrix sum_input_;
  EmbeddingMatrix hidden_;
  EmbeddingMatrix mask1_;
  EmbeddingMatrix mask2_;
};

// Single-head graph attention (Velickovic et al.; mentioned in the paper's
// introduction). For local vertex i with attention set J(i) = {i} ∪ N(i):
//   z_j   = W h_j
//   e_ij  = LeakyReLU(a_srcᵀ z_i + a_dstᵀ z_j)
//   α_i·  = softmax over J(i) of e_i·
//   h'_i  = ReLU(Σ_j α_ij z_j)
class GatLayer final : public GnnLayer {
 public:
  GatLayer(uint32_t dim_in, uint32_t dim_out, Rng& rng)
      : w_(RandomWeights(dim_in, dim_out, rng)),
        a_src_(RandomWeights(1, dim_out, rng)),
        a_dst_(RandomWeights(1, dim_out, rng)),
        dw_(EmbeddingMatrix::Zero(dim_in, dim_out)),
        da_src_(EmbeddingMatrix::Zero(1, dim_out)),
        da_dst_(EmbeddingMatrix::Zero(1, dim_out)) {}

  // GAT transforms before it aggregates, so its input-only work is keeping
  // the slots themselves.
  void SetInput(const LocalGraph& /*graph*/, const EmbeddingMatrix& slots) override {
    slots_in_ = slots;
  }

  EmbeddingMatrix Update(const LocalGraph& graph) override {
    Gemm(slots_in_, w_, z_);
    // Attention logits per slot.
    src_score_.assign(graph.num_slots, 0.0f);
    dst_score_.assign(graph.num_slots, 0.0f);
    for (uint32_t j = 0; j < graph.num_slots; ++j) {
      const float* zrow = z_.Row(j);
      float s = 0.0f;
      float t = 0.0f;
      for (uint32_t c = 0; c < z_.dim; ++c) {
        s += a_src_.data[c] * zrow[c];
        t += a_dst_.data[c] * zrow[c];
      }
      src_score_[j] = s;
      dst_score_[j] = t;
    }
    // Per-vertex softmax over {self} ∪ neighbors.
    alpha_.clear();
    lrelu_mask_.clear();
    EmbeddingMatrix pre = EmbeddingMatrix::Zero(graph.num_compute, z_.dim);
    for (uint32_t i = 0; i < graph.num_compute; ++i) {
      auto nbrs = graph.Neighbors(i);
      const size_t fan = nbrs.size() + 1;
      std::vector<float> logits(fan);
      std::vector<float> mask(fan);
      auto score = [&](size_t k) { return k == 0 ? i : nbrs[k - 1]; };
      float max_logit = -1e30f;
      for (size_t k = 0; k < fan; ++k) {
        const float raw = src_score_[i] + dst_score_[score(k)];
        mask[k] = raw > 0.0f ? 1.0f : kLeakySlope;
        logits[k] = raw > 0.0f ? raw : raw * kLeakySlope;
        max_logit = std::max(max_logit, logits[k]);
      }
      float denom = 0.0f;
      for (size_t k = 0; k < fan; ++k) {
        logits[k] = std::exp(logits[k] - max_logit);
        denom += logits[k];
      }
      float* prow = pre.Row(i);
      for (size_t k = 0; k < fan; ++k) {
        const float a = logits[k] / denom;
        alpha_.push_back(a);
        lrelu_mask_.push_back(mask[k]);
        const float* zrow = z_.Row(static_cast<uint32_t>(score(k)));
        for (uint32_t c = 0; c < z_.dim; ++c) {
          prow[c] += a * zrow[c];
        }
      }
    }
    EmbeddingMatrix out = pre;
    ReluInPlace(out, relu_mask_);
    return out;
  }

  void Step(float lr) override {
    for (size_t i = 0; i < w_.data.size(); ++i) {
      w_.data[i] -= lr * dw_.data[i];
    }
    for (size_t i = 0; i < a_src_.data.size(); ++i) {
      a_src_.data[i] -= lr * da_src_.data[i];
      a_dst_.data[i] -= lr * da_dst_.data[i];
    }
    std::fill(dw_.data.begin(), dw_.data.end(), 0.0f);
    std::fill(da_src_.data.begin(), da_src_.data.end(), 0.0f);
    std::fill(da_dst_.data.begin(), da_dst_.data.end(), 0.0f);
  }

  std::vector<EmbeddingMatrix*> Params() override { return {&w_, &a_src_, &a_dst_}; }
  std::vector<EmbeddingMatrix*> Grads() override { return {&dw_, &da_src_, &da_dst_}; }
  uint32_t dim_in() const override { return w_.rows; }
  uint32_t dim_out() const override { return w_.dim; }

 private:
  EmbeddingMatrix BackwardImpl(const LocalGraph& graph, const EmbeddingMatrix& grad_out,
                               bool input_grad) override {
    EmbeddingMatrix dpre = grad_out;
    ReluBackwardInPlace(dpre, relu_mask_);
    EmbeddingMatrix dz = EmbeddingMatrix::Zero(graph.num_slots, z_.dim);
    std::vector<float> ds(graph.num_slots, 0.0f);  // grad of src_score per slot
    std::vector<float> dt(graph.num_slots, 0.0f);  // grad of dst_score per slot

    size_t cursor = 0;
    for (uint32_t i = 0; i < graph.num_compute; ++i) {
      auto nbrs = graph.Neighbors(i);
      const size_t fan = nbrs.size() + 1;
      auto slot_of = [&](size_t k) {
        return k == 0 ? i : nbrs[k - 1];
      };
      const float* drow = dpre.Row(i);
      // dα_ik = dpre_i · z_k; softmax backward needs the α-weighted mean.
      std::vector<float> dalpha(fan);
      float weighted = 0.0f;
      for (size_t k = 0; k < fan; ++k) {
        const float* zrow = z_.Row(static_cast<uint32_t>(slot_of(k)));
        float dot = 0.0f;
        for (uint32_t c = 0; c < z_.dim; ++c) {
          dot += drow[c] * zrow[c];
        }
        dalpha[k] = dot;
        weighted += alpha_[cursor + k] * dot;
      }
      for (size_t k = 0; k < fan; ++k) {
        const float a = alpha_[cursor + k];
        const uint32_t j = static_cast<uint32_t>(slot_of(k));
        // dz_j += α dpre_i
        float* dzrow = dz.Row(j);
        for (uint32_t c = 0; c < z_.dim; ++c) {
          dzrow[c] += a * drow[c];
        }
        // de through softmax and LeakyReLU.
        const float de = a * (dalpha[k] - weighted);
        const float dg = de * lrelu_mask_[cursor + k];
        ds[i] += dg;
        dt[j] += dg;
      }
      cursor += fan;
    }
    // s_j = a_srcᵀ z_j and t_j = a_dstᵀ z_j over all slots.
    for (uint32_t j = 0; j < graph.num_slots; ++j) {
      float* dzrow = dz.Row(j);
      const float* zrow = z_.Row(j);
      for (uint32_t c = 0; c < z_.dim; ++c) {
        dzrow[c] += ds[j] * a_src_.data[c] + dt[j] * a_dst_.data[c];
        da_src_.data[c] += ds[j] * zrow[c];
        da_dst_.data[c] += dt[j] * zrow[c];
      }
    }
    // z = slots * W.
    EmbeddingMatrix dw_now;
    GemmTransposeA(slots_in_, dz, dw_now);
    AddInPlace(dw_, dw_now);
    if (!input_grad) {
      return {};
    }
    EmbeddingMatrix dslots;
    GemmTransposeB(dz, w_, dslots);
    return dslots;
  }

  static constexpr float kLeakySlope = 0.2f;

  EmbeddingMatrix w_;
  EmbeddingMatrix a_src_;
  EmbeddingMatrix a_dst_;
  EmbeddingMatrix dw_;
  EmbeddingMatrix da_src_;
  EmbeddingMatrix da_dst_;

  // Forward caches.
  EmbeddingMatrix slots_in_;
  EmbeddingMatrix z_;
  std::vector<float> src_score_;
  std::vector<float> dst_score_;
  std::vector<float> alpha_;       // flattened per (i, {self} ∪ N(i))
  std::vector<float> lrelu_mask_;  // LeakyReLU derivative per attention edge
  EmbeddingMatrix relu_mask_;
};

}  // namespace

std::unique_ptr<GnnLayer> MakeLayer(GnnModel model, uint32_t dim_in, uint32_t dim_out,
                                    Rng& rng) {
  switch (model) {
    case GnnModel::kGcn:
      return std::make_unique<GcnLayer>(dim_in, dim_out, rng);
    case GnnModel::kCommNet:
      return std::make_unique<CommNetLayer>(dim_in, dim_out, rng);
    case GnnModel::kGin:
      return std::make_unique<GinLayer>(dim_in, dim_out, rng);
    case GnnModel::kGat:
      return std::make_unique<GatLayer>(dim_in, dim_out, rng);
  }
  DGCL_LOG(kFatal) << "unknown GNN model";
  return nullptr;
}

EmbeddingMatrix InferenceForward(const LocalGraph& graph, const EmbeddingMatrix& inputs,
                                 std::span<const std::unique_ptr<GnnLayer>> layers) {
  DGCL_CHECK_EQ(graph.num_slots, graph.num_compute);
  DGCL_CHECK_EQ(inputs.rows, graph.num_slots);
  EmbeddingMatrix current = inputs;
  for (const std::unique_ptr<GnnLayer>& layer : layers) {
    current = layer->Forward(graph, current);
  }
  return current;
}

}  // namespace dgcl
