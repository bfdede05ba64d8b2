// GNN layers with full forward/backward (the three models of §7).
//
// Each layer follows the aggregate-update pattern of Eq. (1):
//   GCN      h' = ReLU( mean(h_v, h_N(v)) W + b )
//   CommNet  h' = ReLU( h_v W_self + mean(h_N(v)) W_comm + b )
//   GIN      h' = MLP( (1+eps) h_v + sum(h_N(v)) ),  MLP = ReLU∘Linear twice
//
// Forward consumes a slot matrix (locals + remotes, post-allgather) and
// produces local rows. It is two steps: SetInput does the work that depends
// on the slots alone (GCN's, CommNet's and GIN's aggregation; GAT, which
// transforms first, keeps the slots) and keeps the result in the layer;
// Update does the weighted work on what SetInput kept. A layer whose input
// never changes (the trainer's layer 0: fixed features on a fixed graph) is
// set once and then only updated.
//
// Backward consumes local-row gradients and produces a slot-matrix gradient
// whose remote rows must be routed back to their owners by the backward
// allgather. The first layer's slot gradient would be the gradient of the
// input features, which nobody consumes: BackwardParamsOnly skips computing
// it (and so the trainer skips its backward allgather).

#ifndef DGCL_GNN_LAYERS_H_
#define DGCL_GNN_LAYERS_H_

#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "gnn/local_graph.h"
#include "gnn/nn.h"
#include "sim/compute_model.h"

namespace dgcl {

class GnnLayer {
 public:
  virtual ~GnnLayer() = default;

  // `slots` has graph.num_slots rows; returns graph.num_compute rows.
  EmbeddingMatrix Forward(const LocalGraph& graph, const EmbeddingMatrix& slots) {
    SetInput(graph, slots);
    return Update(graph);
  }

  // The input-only half of Forward: keeps what Update and Backward need of
  // `slots` (num_slots rows), which the caller may then drop.
  virtual void SetInput(const LocalGraph& graph, const EmbeddingMatrix& slots) = 0;

  // The weighted half of Forward on the input last set: returns num_compute
  // rows, bitwise equal to Forward on those slots with the current weights.
  virtual EmbeddingMatrix Update(const LocalGraph& graph) = 0;

  // `grad_out` has num_compute rows; returns num_slots rows of input grads.
  // Accumulates parameter gradients internally.
  EmbeddingMatrix Backward(const LocalGraph& graph, const EmbeddingMatrix& grad_out) {
    return BackwardImpl(graph, grad_out, /*input_grad=*/true);
  }

  // Backward that only accumulates the parameter gradients: Grads() ends up
  // bitwise equal to what Backward leaves, but no input gradient is formed.
  void BackwardParamsOnly(const LocalGraph& graph, const EmbeddingMatrix& grad_out) {
    BackwardImpl(graph, grad_out, /*input_grad=*/false);
  }

  // SGD step with the accumulated (externally synchronized) gradients, then
  // zeroes them in place.
  virtual void Step(float lr) = 0;

  // Flat views of parameters and their gradients for cross-device averaging.
  virtual std::vector<EmbeddingMatrix*> Params() = 0;
  virtual std::vector<EmbeddingMatrix*> Grads() = 0;

  virtual uint32_t dim_in() const = 0;
  virtual uint32_t dim_out() const = 0;

 private:
  // Accumulates parameter gradients; returns the slot gradient when
  // `input_grad`, an empty matrix otherwise.
  virtual EmbeddingMatrix BackwardImpl(const LocalGraph& graph, const EmbeddingMatrix& grad_out,
                                       bool input_grad) = 0;
};

// Factory: one layer of `model` mapping dim_in -> dim_out, weights drawn
// from `rng` (pass identically-seeded Rngs to replicate weights).
std::unique_ptr<GnnLayer> MakeLayer(GnnModel model, uint32_t dim_in, uint32_t dim_out, Rng& rng);

// Forward-only pass over a layer stack on a fully-local graph (num_slots ==
// num_compute, e.g. FullLocalGraph of a sampled mini-batch subgraph): each
// layer's output rows feed the next layer's slots directly, no allgather.
// Returns the last layer's rows. Layers still cache activations (Forward is
// non-const), so a stack must not be shared across threads — the serving
// tier gives each sampler worker its own replica (seeded identically).
EmbeddingMatrix InferenceForward(const LocalGraph& graph, const EmbeddingMatrix& inputs,
                                 std::span<const std::unique_ptr<GnnLayer>> layers);

// --- aggregation primitives (exposed for tests) ---

// out[i] = (h[i] + sum_{u in N(i)} h[u]) / (1 + deg(i)), rows = num_compute.
EmbeddingMatrix AggregateMeanWithSelf(const LocalGraph& graph, const EmbeddingMatrix& slots);
// out[i] = mean_{u in N(i)} h[u] (zero row when no neighbors).
EmbeddingMatrix AggregateMeanNeighbors(const LocalGraph& graph, const EmbeddingMatrix& slots);
// out[i] = sum_{u in N(i)} h[u].
EmbeddingMatrix AggregateSumNeighbors(const LocalGraph& graph, const EmbeddingMatrix& slots);

// Transposed scatter of the three aggregations: given d(out), produce
// d(slots). The mean-with-self scatter pulls each slot's sum over the rows
// that read it (graph.readers; built for the call when the graph has none),
// adding the same terms in the same order as a push over the rows would.
EmbeddingMatrix ScatterMeanWithSelfBackward(const LocalGraph& graph, EmbeddingMatrix grad_agg);
EmbeddingMatrix ScatterMeanNeighborsBackward(const LocalGraph& graph,
                                             const EmbeddingMatrix& grad_agg);
EmbeddingMatrix ScatterSumNeighborsBackward(const LocalGraph& graph,
                                            const EmbeddingMatrix& grad_agg);

}  // namespace dgcl

#endif  // DGCL_GNN_LAYERS_H_
