// Distributed full-graph GNN training (§2, §6.3).
//
// Execution per epoch, exactly the transfer-compute schedule of the paper:
// for each layer, run graphAllgather to materialize remote embeddings, do the
// graph aggregation + DNN update on local rows, and drop the remote rows
// before the next dense op. The backward pass routes remote-vertex gradients
// back to their owners through the same plan in reverse; the first layer's
// input gradient is never formed, so an L-layer epoch runs 2L-1 engine passes
// (L forward, L-1 backward). Model weights are replicated and
// gradient-summed across devices every step (the paper defers this to
// Horovod/DDP; GNN weights are small).
//
// Device math runs in parallel, as on one GPU per device: the trainer owns
// one persistent worker thread per device, and device d's layer compute,
// slot preparation, head, loss and backward always run on worker d. The
// devices meet only in the engine passes (the threaded AllgatherEngine with
// the decentralized flag protocol, driven from the calling thread) and in
// the reductions, which run on the calling thread in device order: the loss
// and accuracy sums and the gradient sync. Results are therefore bitwise
// independent of thread scheduling.

#ifndef DGCL_GNN_TRAINER_H_
#define DGCL_GNN_TRAINER_H_

#include <memory>
#include <vector>

#include "comm/relation.h"
#include "common/status.h"
#include "gnn/layers.h"
#include "gnn/local_graph.h"
#include "runtime/allgather_engine.h"
#include "runtime/recovery.h"

namespace dgcl {

struct TrainerOptions {
  GnnModel model = GnnModel::kGcn;
  uint32_t num_layers = 2;
  uint32_t hidden_dim = 16;
  float learning_rate = 0.5f;
  uint64_t weight_seed = 123;  // identical across devices (replicated model)
  // Synchronize gradients with the ring all-reduce (runtime/allreduce.h)
  // instead of a naive sequential sum. Same result up to float summation
  // order; this is what Horovod/DDP would do on real hardware (§6.3).
  bool use_ring_allreduce = false;

  // DistGNN-style cd-r delayed remote aggregation: cross-partition
  // allgathers run only every r-th training epoch; the r-1 epochs in
  // between reuse the remote slot rows cached at the last exchange (local
  // rows stay fresh) and skip the backward allgather, dropping the delayed
  // remote-gradient contributions. 1 (default) = fully synchronous — the
  // exact paper schedule. Evaluate/Logits always exchange fresh embeddings.
  uint32_t aggregate_every_r = 1;
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

// Optional per-epoch recovery plumbing for TrainEpoch. With `checkpoints`
// set, the trainer snapshots the global activation matrix entering layer l
// (for every l >= 1 the store elects) *before* running that layer's
// allgather — keyed by global vertex id, so the snapshot is valid under any
// post-recovery layout. With `restore` also set, layers whose boundary is
// checkpointed rebuild their slot inputs straight from the snapshot instead
// of re-running the allgather: every layer still runs its local compute (so
// the backward caches stay exact), only the communication — the expensive
// part — is skipped.
struct EpochHooks {
  EmbeddingCheckpointStore* checkpoints = nullptr;
  bool restore = false;
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
  // Same weight initialization as DistributedTrainer::Create with one
  // device: identically-seeded stacks produce identical replicas, so a
  // MiniBatchModel and a full-graph trainer with equal options start from
  // the same weights.
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

  // PR-5 checkpoint machinery: same shapes as DistributedTrainer's replicas.
  ReplicaWeights ExportReplica();
  Status ImportReplica(const ReplicaWeights& weights);

 private:
  MiniBatchModel() = default;

  Result<EpochResult> Pass(bool train, const LocalGraph& block, const EmbeddingMatrix& inputs,
                           const std::vector<uint32_t>& labels);

  TrainerOptions options_;
  uint32_t num_classes_ = 0;
  std::vector<std::unique_ptr<GnnLayer>> layers_;
  EmbeddingMatrix head_w_;
  EmbeddingMatrix head_dw_;
};

class DistributedTrainer {
 public:
  DistributedTrainer(DistributedTrainer&&) noexcept;
  DistributedTrainer& operator=(DistributedTrainer&&) noexcept;
  ~DistributedTrainer();  // joins the device workers

  // `features`: one row per global vertex. `labels`: per global vertex, in
  // [0, num_classes) or kInvalidId for unlabeled. The relation/engine define
  // the device layout; all must outlive the trainer.
  static Result<DistributedTrainer> Create(const CsrGraph& graph, const CommRelation& relation,
                                           const AllgatherEngine& engine,
                                           const EmbeddingMatrix& features,
                                           const std::vector<uint32_t>& labels,
                                           uint32_t num_classes, TrainerOptions options);

  // One full forward + backward + synchronized SGD step over all vertices.
  Result<EpochResult> TrainEpoch();

  // TrainEpoch with activation checkpoint/restore plumbing (recovery path).
  Result<EpochResult> TrainEpoch(const EpochHooks& hooks);

  // Forward only; loss/accuracy over all labeled vertices.
  Result<EpochResult> Evaluate();

  // Final-layer logits for every global vertex (row = global vertex id).
  Result<EmbeddingMatrix> Logits();

  // Introspection (tests, replica-consistency checks).
  GnnLayer& layer(uint32_t device, uint32_t index) { return *layers_[device][index]; }
  const EmbeddingMatrix& head_weights(uint32_t device) const { return head_w_[device]; }

  // Snapshot of `device`'s replica weights (== every replica's: weights only
  // ever change inside a fully-completed synchronized step, so at any failure
  // point every replica still holds the epoch-start weights).
  ReplicaWeights ExportReplica(uint32_t device = 0);

  // Overwrites every replica with `weights`. Shapes must match the model.
  Status ImportReplica(const ReplicaWeights& weights);

 private:
  class DeviceWorkers;

  DistributedTrainer();

  // Runs forward to logits per device. With `train`, also runs backward,
  // synchronizes the gradients and steps every replica; with `all_logits`,
  // gathers every device's logits into one matrix by global vertex id.
  Result<EpochResult> Pass(bool train, EmbeddingMatrix* all_logits,
                           const EpochHooks& hooks = {});

  const CommRelation* relation_ = nullptr;
  const AllgatherEngine* engine_ = nullptr;
  TrainerOptions options_;
  uint32_t num_classes_ = 0;

  std::vector<LocalGraph> local_graphs_;                  // per device
  std::vector<EmbeddingMatrix> local_features_;           // per device
  std::vector<std::vector<uint32_t>> local_labels_;       // per device
  // layers_[d][l]: layer l of device d's replica.
  std::vector<std::vector<std::unique_ptr<GnnLayer>>> layers_;
  // Classification head (dense, local rows only), replicated per device.
  std::vector<EmbeddingMatrix> head_w_;
  std::vector<EmbeddingMatrix> head_dw_;

  // cd-r state (aggregate_every_r > 1): completed training epochs, and the
  // remote slot rows [num_local, num_slots) cached per (layer, device) at
  // the last fresh exchange. Empty until the first fresh epoch populates it.
  uint64_t train_epochs_ = 0;
  std::vector<std::vector<EmbeddingMatrix>> stale_remote_;  // [layer][device]

  // Worker d runs device d's math. Heap-held so the trainer stays movable:
  // the worker threads keep the DeviceWorkers' address.
  std::unique_ptr<DeviceWorkers> workers_;
};

}  // namespace dgcl

#endif  // DGCL_GNN_TRAINER_H_
