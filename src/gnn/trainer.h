// Distributed full-graph GNN training (§2, §6.3).
//
// Execution per epoch, the transfer-compute schedule of the paper with its
// §3 option (1), caching layer 0's remote features: for each layer, run
// graphAllgather to materialize remote embeddings, do the graph aggregation +
// DNN update on local rows, and drop the remote rows before the next dense
// op. Layer 0 is the exception. Its input, the features on the graph, never
// changes, so Create gathers each device's feature slots once and does layer
// 0's input-only work (GnnLayer::SetInput, e.g. GCN's aggregation) there;
// every epoch then runs only layer 0's weighted work (GnnLayer::Update), with
// no allgather. The backward pass routes remote-vertex gradients back to
// their owners through the same plan in reverse; the first layer's input
// gradient is never formed. An L-layer epoch therefore runs 2L-2 engine
// passes (L-1 forward, L-1 backward; see PassesPerEpoch). There is one
// schedule: every epoch exchanges fresh embeddings before layers 1..L-1,
// and the trainer takes each pass's finished slot matrices however the
// engine chunks its transfers. Model weights are replicated (one
// ModelReplica per device) and gradient-summed across devices every step
// (the paper defers this to Horovod/DDP; GNN weights are small).
//
// Device math runs in parallel, as on one GPU per device: each epoch is one
// device program (AllgatherEngine::RunProgram). Device d's thread runs its
// whole epoch — layer compute, the engine's forward passes in place on a slot
// matrix the device keeps, head, loss, backward and the backward passes —
// and meets the other devices only through the engine's §6.1 flags. Device 0
// runs on the calling thread, the others on the engine's persistent threads.
// The reductions run on the calling thread once every device has finished,
// in device order: the loss and accuracy sums and the gradient sync. Results
// are therefore bitwise independent of thread scheduling.

#ifndef DGCL_GNN_TRAINER_H_
#define DGCL_GNN_TRAINER_H_

#include <memory>
#include <vector>

#include "comm/relation.h"
#include "common/status.h"
#include "gnn/layers.h"
#include "gnn/local_graph.h"
#include "runtime/allgather_engine.h"

namespace dgcl {

// Model and optimizer settings of DistributedTrainer and MiniBatchModel.
struct TrainerOptions {
  GnnModel model = GnnModel::kGcn;
  uint32_t num_layers = 2;     // GNN layers before the classification head
  uint32_t hidden_dim = 16;    // output width of every GNN layer
  float learning_rate = 0.5f;  // plain SGD
  uint64_t weight_seed = 123;  // identical across devices (replicated model)
};

struct EpochResult {
  double loss = 0.0;
  double accuracy = 0.0;
};

// One model replica's weights, keyed by (layer, param) position. Because the
// model is replicated with identical seeds and synchronized steps, any
// device's replica is *the* model — this is what survives a recovery and is
// imported into the trainer rebuilt for the surviving topology.
struct ReplicaWeights {
  std::vector<std::vector<EmbeddingMatrix>> layers;  // [layer][param]
  EmbeddingMatrix head;
};

// InvalidArgument unless every label is kInvalidId (unlabeled) or in
// [0, num_classes).
Status ValidateLabels(const std::vector<uint32_t>& labels, uint32_t num_classes);

// One live copy of the model: the GNN layer stack, the classification head
// and the head's gradient. MiniBatchModel holds one; DistributedTrainer holds
// one per device.
struct ModelReplica {
  // Draws the layer stack (feature_dim -> hidden_dim -> ... -> hidden_dim),
  // then the head (hidden_dim -> num_classes), from one Rng seeded with
  // options.weight_seed: equal options give bitwise-equal replicas.
  static ModelReplica Create(uint32_t feature_dim, uint32_t num_classes,
                             const TrainerOptions& options);

  // Every parameter gradient, layer by layer, then the head's.
  std::vector<EmbeddingMatrix*> Grads();
  void ZeroGrads();
  // SGD step of the layers and the head with the accumulated gradients,
  // which are zero afterwards.
  void Step(float learning_rate);

  ReplicaWeights Export();
  // Overwrites the weights. Shapes must match; on error nothing is written.
  Status Import(const ReplicaWeights& weights);

  std::vector<std::unique_ptr<GnnLayer>> layers;
  EmbeddingMatrix head_w;
  EmbeddingMatrix head_dw;
};

// Single-replica model for sampled mini-batch training: the same layer
// stack + classification head as DistributedTrainer, but each Step runs
// forward/backward/SGD on one fully-local sampled block (num_slots ==
// num_compute, e.g. FullLocalGraph of an induced mini-batch subgraph)
// instead of the whole partitioned graph — no allgather, no replica sync.
// Weights round-trip through the same ReplicaWeights the recovery machinery
// checkpoints, so mini-batch epochs snapshot/restore exactly like full-graph
// ones (the serving-tier MiniBatchTrainer drives this; see
// service/minibatch_trainer.h).
class MiniBatchModel {
 public:
  // Same weight initialization as every replica of DistributedTrainer::Create
  // (both use ModelReplica::Create), so a MiniBatchModel and a full-graph
  // trainer with equal options start from the same weights.
  static Result<MiniBatchModel> Create(uint32_t feature_dim, uint32_t num_classes,
                                       TrainerOptions options);

  // One SGD step on a sampled block. `inputs` has block.num_slots rows
  // (the sampled nodes' feature rows); `labels` has block.num_compute
  // entries, kInvalidId = unlabeled (masked). Returns loss/accuracy over
  // the block's labeled rows.
  Result<EpochResult> Step(const LocalGraph& block, const EmbeddingMatrix& inputs,
                           const std::vector<uint32_t>& labels);

  // Forward only; loss/accuracy over the block's labeled rows.
  Result<EpochResult> Evaluate(const LocalGraph& block, const EmbeddingMatrix& inputs,
                               const std::vector<uint32_t>& labels);

  // Weight export/import: same shapes as DistributedTrainer's replicas.
  ReplicaWeights ExportReplica();
  Status ImportReplica(const ReplicaWeights& weights);

 private:
  MiniBatchModel() = default;

  Result<EpochResult> Pass(bool train, const LocalGraph& block, const EmbeddingMatrix& inputs,
                           const std::vector<uint32_t>& labels);

  TrainerOptions options_;
  uint32_t num_classes_ = 0;
  ModelReplica replica_;
};

class DistributedTrainer {
 public:
  // `features`: one row per global vertex. `labels`: per global vertex, in
  // [0, num_classes) or kInvalidId for unlabeled. The relation/engine define
  // the device layout; they must outlive the trainer, and the relation must
  // be built from `graph`. `features` is read here only: layer 0 keeps what
  // it needs of it.
  static Result<DistributedTrainer> Create(const CsrGraph& graph, const CommRelation& relation,
                                           const AllgatherEngine& engine,
                                           const EmbeddingMatrix& features,
                                           const std::vector<uint32_t>& labels,
                                           uint32_t num_classes, TrainerOptions options);

  // Engine passes one TrainEpoch runs for an L-layer model (L >= 1): the
  // forward allgathers of layers 1..L-1, then the backward allgathers of
  // layers L-1..1. Evaluate runs the first L-1 of them.
  static constexpr uint32_t PassesPerEpoch(uint32_t num_layers) { return 2 * (num_layers - 1); }

  // One full forward + backward + synchronized SGD step over all vertices.
  // A failed epoch leaves the weights untouched, so it can simply be run
  // again (after a recovery, on the trainer rebuilt for the survivors).
  Result<EpochResult> TrainEpoch();

  // Forward only; loss/accuracy over all labeled vertices.
  Result<EpochResult> Evaluate();

  // Final-layer logits for every global vertex (row = global vertex id).
  Result<EmbeddingMatrix> Logits();

  // Introspection (tests, replica-consistency checks).
  GnnLayer& layer(uint32_t device, uint32_t index) { return *replicas_[device].layers[index]; }
  const EmbeddingMatrix& head_weights(uint32_t device) const { return replicas_[device].head_w; }

  // Snapshot of `device`'s replica weights (== every replica's: weights only
  // ever change inside a fully-completed synchronized step, so at any failure
  // point every replica still holds the epoch-start weights).
  ReplicaWeights ExportReplica(uint32_t device = 0);

  // Overwrites every replica with `weights`. Shapes must match the model.
  Status ImportReplica(const ReplicaWeights& weights);

 private:
  struct EpochState;

  DistributedTrainer() = default;

  // Runs forward to logits per device. With `train`, also runs backward,
  // synchronizes the gradients and steps every replica; with `all_logits`,
  // gathers every device's logits into one matrix by global vertex id.
  Result<EpochResult> Pass(bool train, EmbeddingMatrix* all_logits);

  // Device passes.device()'s part of one epoch: its forward (with the engine's
  // forward passes), head and loss, and when training its backward (with the
  // backward passes) down to its parameter gradients.
  Status RunDevice(DevicePasses& passes, EpochState& epoch);

  const CommRelation* relation_ = nullptr;
  const AllgatherEngine* engine_ = nullptr;
  TrainerOptions options_;
  uint32_t num_classes_ = 0;

  std::vector<LocalGraph> local_graphs_;                  // per device
  std::vector<std::vector<uint32_t>> local_labels_;       // per device
  std::vector<ModelReplica> replicas_;                    // per device
  // Per device: the slot matrix its engine passes run in, kept across passes
  // and epochs so that no pass allocates one. Only device d's thread uses it.
  std::vector<EmbeddingMatrix> slot_buffers_;
};

}  // namespace dgcl

#endif  // DGCL_GNN_TRAINER_H_
