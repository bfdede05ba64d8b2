#include "gnn/trainer.h"

#include <algorithm>
#include <utility>

#include "common/ids.h"
#include "common/logging.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

// Device `device`'s slot matrix from a matrix with one row per global
// vertex: its local rows first, then its remote rows, in the relation's order.
EmbeddingMatrix GatherSlots(const EmbeddingMatrix& global, const CommRelation& relation,
                            uint32_t device) {
  const auto& locals = relation.local_vertices[device];
  const auto& remotes = relation.remote_vertices[device];
  EmbeddingMatrix slots =
      EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size() + remotes.size()), global.dim);
  uint32_t row = 0;
  for (const auto* vertices : {&locals, &remotes}) {
    for (VertexId v : *vertices) {
      std::copy(global.Row(v), global.Row(v) + global.dim, slots.Row(row++));
    }
  }
  return slots;
}

uint32_t CountLabeled(const std::vector<uint32_t>& labels) {
  uint32_t n = 0;
  for (uint32_t label : labels) {
    if (label != kInvalidId) {
      ++n;
    }
  }
  return n;
}

}  // namespace

Status ValidateLabels(const std::vector<uint32_t>& labels, uint32_t num_classes) {
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] != kInvalidId && labels[i] >= num_classes) {
      return Status::InvalidArgument("label " + std::to_string(labels[i]) + " at row " +
                                     std::to_string(i) + " is out of range for " +
                                     std::to_string(num_classes) + " classes");
    }
  }
  return Status::Ok();
}

ModelReplica ModelReplica::Create(uint32_t feature_dim, uint32_t num_classes,
                                  const TrainerOptions& options) {
  ModelReplica replica;
  Rng rng(options.weight_seed);
  uint32_t dim_in = feature_dim;
  for (uint32_t l = 0; l < options.num_layers; ++l) {
    replica.layers.push_back(MakeLayer(options.model, dim_in, options.hidden_dim, rng));
    dim_in = options.hidden_dim;
  }
  replica.head_w = RandomWeights(options.hidden_dim, num_classes, rng);
  replica.head_dw = EmbeddingMatrix::Zero(options.hidden_dim, num_classes);
  return replica;
}

std::vector<EmbeddingMatrix*> ModelReplica::Grads() {
  std::vector<EmbeddingMatrix*> grads;
  for (auto& layer : layers) {
    for (EmbeddingMatrix* g : layer->Grads()) {
      grads.push_back(g);
    }
  }
  grads.push_back(&head_dw);
  return grads;
}

void ModelReplica::ZeroGrads() {
  for (EmbeddingMatrix* g : Grads()) {
    std::fill(g->data.begin(), g->data.end(), 0.0f);
  }
}

void ModelReplica::Step(float learning_rate) {
  for (auto& layer : layers) {
    layer->Step(learning_rate);
  }
  for (size_t i = 0; i < head_w.data.size(); ++i) {
    head_w.data[i] -= learning_rate * head_dw.data[i];
  }
  std::fill(head_dw.data.begin(), head_dw.data.end(), 0.0f);
}

ReplicaWeights ModelReplica::Export() {
  ReplicaWeights weights;
  weights.layers.reserve(layers.size());
  for (auto& layer : layers) {
    std::vector<EmbeddingMatrix> params;
    for (EmbeddingMatrix* p : layer->Params()) {
      params.push_back(*p);
    }
    weights.layers.push_back(std::move(params));
  }
  weights.head = head_w;
  return weights;
}

Status ModelReplica::Import(const ReplicaWeights& weights) {
  if (weights.layers.size() != layers.size()) {
    return Status::InvalidArgument("ImportReplica: layer count mismatch");
  }
  for (size_t l = 0; l < layers.size(); ++l) {
    std::vector<EmbeddingMatrix*> params = layers[l]->Params();
    if (params.size() != weights.layers[l].size()) {
      return Status::InvalidArgument("ImportReplica: param count mismatch at layer " +
                                     std::to_string(l));
    }
    for (size_t g = 0; g < params.size(); ++g) {
      if (params[g]->rows != weights.layers[l][g].rows ||
          params[g]->dim != weights.layers[l][g].dim) {
        return Status::InvalidArgument("ImportReplica: shape mismatch at layer " +
                                       std::to_string(l));
      }
    }
  }
  if (head_w.rows != weights.head.rows || head_w.dim != weights.head.dim) {
    return Status::InvalidArgument("ImportReplica: head shape mismatch");
  }
  for (size_t l = 0; l < layers.size(); ++l) {
    std::vector<EmbeddingMatrix*> params = layers[l]->Params();
    for (size_t g = 0; g < params.size(); ++g) {
      *params[g] = weights.layers[l][g];
    }
  }
  head_w = weights.head;
  return Status::Ok();
}

Result<MiniBatchModel> MiniBatchModel::Create(uint32_t feature_dim, uint32_t num_classes,
                                              TrainerOptions options) {
  if (feature_dim == 0 || num_classes == 0 || options.num_layers == 0 ||
      options.hidden_dim == 0) {
    return Status::InvalidArgument("need feature_dim, num_classes, num_layers and hidden_dim >= 1");
  }
  MiniBatchModel model;
  model.options_ = options;
  model.num_classes_ = num_classes;
  model.replica_ = ModelReplica::Create(feature_dim, num_classes, options);
  return model;
}

Result<EpochResult> MiniBatchModel::Pass(bool train, const LocalGraph& block,
                                         const EmbeddingMatrix& inputs,
                                         const std::vector<uint32_t>& labels) {
  if (block.num_slots != block.num_compute) {
    return Status::InvalidArgument(
        "mini-batch blocks must be fully local (num_slots == num_compute); got " +
        std::to_string(block.num_slots) + " slots for " + std::to_string(block.num_compute) +
        " compute rows");
  }
  if (inputs.rows != block.num_slots || labels.size() != block.num_compute) {
    return Status::InvalidArgument("inputs/labels must cover every block row");
  }
  DGCL_RETURN_IF_ERROR(ValidateLabels(labels, num_classes_));
  if (CountLabeled(labels) == 0) {
    return Status::FailedPrecondition("no labeled vertices in the block");
  }
  if (train) {
    // Clear any partial accumulations a failed earlier step left behind.
    replica_.ZeroGrads();
  }
  // Fully-local forward: each layer's output rows are the next layer's slot
  // rows directly (the InferenceForward schedule, kept inline here because
  // backward needs the stack's cached activations).
  std::vector<std::unique_ptr<GnnLayer>>& layers = replica_.layers;
  EmbeddingMatrix acts = layers[0]->Forward(block, inputs);
  for (size_t l = 1; l < layers.size(); ++l) {
    acts = layers[l]->Forward(block, acts);
  }

  EpochResult result;
  EmbeddingMatrix logits;
  Gemm(acts, replica_.head_w, logits);
  EmbeddingMatrix dlogits;
  result.loss = SoftmaxCrossEntropy(logits, labels, dlogits);
  result.accuracy = Accuracy(logits, labels);
  if (!train) {
    return result;
  }

  EmbeddingMatrix dw;
  GemmTransposeA(acts, dlogits, dw);
  AddInPlace(replica_.head_dw, dw);
  EmbeddingMatrix dacts;
  GemmTransposeB(dlogits, replica_.head_w, dacts);
  for (size_t l = layers.size(); l-- > 1;) {
    dacts = layers[l]->Backward(block, dacts);
  }
  layers[0]->BackwardParamsOnly(block, dacts);  // nobody consumes d(inputs)
  replica_.Step(options_.learning_rate);
  return result;
}

Result<EpochResult> MiniBatchModel::Step(const LocalGraph& block, const EmbeddingMatrix& inputs,
                                         const std::vector<uint32_t>& labels) {
  return Pass(/*train=*/true, block, inputs, labels);
}

Result<EpochResult> MiniBatchModel::Evaluate(const LocalGraph& block,
                                             const EmbeddingMatrix& inputs,
                                             const std::vector<uint32_t>& labels) {
  return Pass(/*train=*/false, block, inputs, labels);
}

ReplicaWeights MiniBatchModel::ExportReplica() { return replica_.Export(); }

Status MiniBatchModel::ImportReplica(const ReplicaWeights& weights) {
  return replica_.Import(weights);
}

Result<DistributedTrainer> DistributedTrainer::Create(
    const CsrGraph& graph, const CommRelation& relation, const AllgatherEngine& engine,
    const EmbeddingMatrix& features, const std::vector<uint32_t>& labels, uint32_t num_classes,
    TrainerOptions options) {
  if (features.rows != graph.num_vertices() || labels.size() != graph.num_vertices()) {
    return Status::InvalidArgument("features/labels must cover every vertex");
  }
  if (relation.source.size() != graph.num_vertices()) {
    return Status::InvalidArgument("relation covers " + std::to_string(relation.source.size()) +
                                   " vertices, graph has " +
                                   std::to_string(graph.num_vertices()));
  }
  if (options.num_layers == 0 || options.hidden_dim == 0 || num_classes == 0) {
    return Status::InvalidArgument("need at least one layer, one hidden unit and one class");
  }
  DGCL_RETURN_IF_ERROR(ValidateLabels(labels, num_classes));
  DistributedTrainer trainer;
  trainer.relation_ = &relation;
  trainer.engine_ = &engine;
  trainer.options_ = options;
  trainer.num_classes_ = num_classes;

  const uint32_t devices = relation.num_devices;
  trainer.local_graphs_.reserve(devices);
  trainer.local_labels_.resize(devices);
  trainer.replicas_.reserve(devices);
  trainer.slot_buffers_.resize(devices);
  for (uint32_t d = 0; d < devices; ++d) {
    trainer.local_graphs_.push_back(BuildLocalGraph(graph, relation, d));
    for (VertexId v : relation.local_vertices[d]) {
      trainer.local_labels_[d].push_back(labels[v]);
    }
    trainer.replicas_.push_back(ModelReplica::Create(features.dim, num_classes, options));
    // Features and graph never change, so layer 0's input-only work is done
    // here once, from the slots an allgather of the features would deliver;
    // every pass then only runs its Update.
    trainer.replicas_[d].layers[0]->SetInput(trainer.local_graphs_[d],
                                             GatherSlots(features, relation, d));
  }
  return trainer;
}

// What one epoch program reads and writes besides the replicas: set up on the
// calling thread, each per-device entry written by its device only, read back
// once every device has finished.
struct DistributedTrainer::EpochState {
  bool train = false;
  std::vector<double> share;  // device d's share of the labeled vertices
  EmbeddingMatrix* all_logits = nullptr;
  // Per device.
  std::vector<double> loss;
  std::vector<double> accuracy;
};

Result<EpochResult> DistributedTrainer::Pass(bool train, EmbeddingMatrix* all_logits) {
  const uint32_t devices = relation_->num_devices;
  const uint32_t layers = options_.num_layers;
  DGCL_TSPAN2("trainer", train ? "epoch.train" : "epoch.eval", "devices", devices, "layers",
              layers);
  uint32_t total_labeled = 0;
  for (uint32_t d = 0; d < devices; ++d) {
    total_labeled += CountLabeled(local_labels_[d]);
  }
  if (total_labeled == 0) {
    return Status::FailedPrecondition("no labeled vertices");
  }

  EpochState epoch;
  epoch.train = train;
  // Device d's share of the labeled vertices: rescales its per-device mean
  // loss (and gradient) to the global mean.
  epoch.share.resize(devices);
  for (uint32_t d = 0; d < devices; ++d) {
    epoch.share[d] = static_cast<double>(CountLabeled(local_labels_[d])) / total_labeled;
  }
  if (all_logits != nullptr) {
    *all_logits = EmbeddingMatrix::Zero(
        static_cast<uint32_t>(relation_->source.size()), num_classes_);
  }
  epoch.all_logits = all_logits;
  epoch.loss.assign(devices, 0.0);
  epoch.accuracy.assign(devices, 0.0);

  DGCL_RETURN_IF_ERROR(engine_->RunProgram(
      options_.hidden_dim, [&](DevicePasses& passes) { return RunDevice(passes, epoch); }));

  EpochResult result;
  for (uint32_t d = 0; d < devices; ++d) {
    result.loss += epoch.loss[d] * epoch.share[d];
    result.accuracy += epoch.accuracy[d] * epoch.share[d];
  }
  if (!train) {
    return result;
  }

  // Gradient synchronization (allreduce-sum) across replicas, then step.
  // Each device's parameter gradient is a *partial sum* over its local
  // vertices of the globally-normalized loss, so the reduce is a sum, not a
  // mean — summing reproduces the single-device gradient exactly. The sum
  // runs in device order, so every replica steps with the same gradient.
  DGCL_TSPAN("trainer", "grad.sync");
  std::vector<std::vector<EmbeddingMatrix*>> grads;
  grads.reserve(devices);
  for (ModelReplica& replica : replicas_) {
    grads.push_back(replica.Grads());
  }
  for (size_t g = 0; g < grads[0].size(); ++g) {
    for (uint32_t d = 1; d < devices; ++d) {
      AddInPlace(*grads[0][g], *grads[d][g]);
    }
    for (uint32_t d = 1; d < devices; ++d) {
      *grads[d][g] = *grads[0][g];
    }
  }
  for (ModelReplica& replica : replicas_) {
    replica.Step(options_.learning_rate);
  }
  return result;
}

Status DistributedTrainer::RunDevice(DevicePasses& passes, EpochState& epoch) {
  const uint32_t d = passes.device();
  // Device 0 runs on the calling thread: its phases are the epoch's phase
  // spans, recorded once per epoch inside epoch.train.
  const bool traced = d == 0;
  const LocalGraph& g = local_graphs_[d];
  ModelReplica& replica = replicas_[d];
  std::vector<std::unique_ptr<GnnLayer>>& layers = replica.layers;
  const uint32_t num_local = g.num_compute;
  // Slot matrix of every pass, kept across passes and epochs: [0, num_slots)
  // are the layer's rows, the forwarded-only extras up to NumSlots follow.
  // Between passes it is cut to the rows the layers read; growing it back
  // zero-fills the extras, as a backward pass needs.
  EmbeddingMatrix& slots = slot_buffers_[d];
  auto resize_slots = [&slots](uint32_t rows, uint32_t dim) {
    slots.rows = rows;
    slots.dim = dim;
    slots.data.resize(static_cast<size_t>(rows) * dim);
  };
  const uint32_t pass_rows = engine_->NumSlots(d);

  if (epoch.train) {
    // A previous pass that failed mid-backward may have left partial
    // parameter-gradient accumulations behind (weights are only touched by
    // the all-or-nothing synchronized step, so *they* are always clean).
    // Re-zero so a retried epoch reproduces a fresh one exactly.
    replica.ZeroGrads();
  }
  // `acts` holds the output of the last layer run. Layer 0's input was set
  // in Create, so it runs without an allgather.
  EmbeddingMatrix acts;
  {
    DGCL_TSPAN1_IF(traced, "trainer", "layer.compute", "layer", 0);
    acts = layers[0]->Update(g);
  }
  for (uint32_t l = 1; l < layers.size(); ++l) {
    {
      DGCL_TSPAN1_IF(traced, "trainer", "layer.allgather", "layer", l);
      resize_slots(pass_rows, acts.dim);
      std::copy(acts.data.begin(), acts.data.end(), slots.data.begin());
      DGCL_RETURN_IF_ERROR(passes.Forward(slots));
      resize_slots(g.num_slots, acts.dim);
    }
    DGCL_TSPAN1_IF(traced, "trainer", "layer.compute", "layer", l);
    acts = layers[l]->Forward(g, slots);
  }

  // Head forward, loss, and (training) head backward.
  EmbeddingMatrix logits;
  Gemm(acts, replica.head_w, logits);
  EmbeddingMatrix dlogits;
  epoch.loss[d] = SoftmaxCrossEntropy(logits, local_labels_[d], dlogits);
  epoch.accuracy[d] = Accuracy(logits, local_labels_[d]);
  if (epoch.all_logits != nullptr) {
    const auto& locals = relation_->local_vertices[d];
    for (uint32_t i = 0; i < num_local; ++i) {
      std::copy(logits.Row(i), logits.Row(i) + num_classes_, epoch.all_logits->Row(locals[i]));
    }
  }
  if (!epoch.train) {
    return Status::Ok();
  }
  ScaleInPlace(dlogits, static_cast<float>(epoch.share[d]));
  EmbeddingMatrix dw;
  GemmTransposeA(acts, dlogits, dw);
  AddInPlace(replica.head_dw, dw);
  EmbeddingMatrix dacts;
  GemmTransposeB(dlogits, replica.head_w, dacts);

  // Backward through the GNN layers, routing remote gradients home. After
  // each backward pass, the slot matrix's first num_local rows are the next
  // layer down's output gradient. Layer 0 accumulates only its parameter
  // gradients: the input-feature gradient is never consumed, so it is
  // neither formed nor exchanged.
  const EmbeddingMatrix* grad_out = &dacts;
  for (uint32_t l = static_cast<uint32_t>(layers.size()); l-- > 1;) {
    EmbeddingMatrix dslots;
    {
      DGCL_TSPAN1_IF(traced, "trainer", "layer.bwd.compute", "layer", l);
      dslots = layers[l]->Backward(g, *grad_out);
    }
    DGCL_TSPAN1_IF(traced, "trainer", "layer.bwd.allgather", "layer", l);
    // Cutting first drops any extras a failed pass left behind.
    resize_slots(g.num_slots, dslots.dim);
    resize_slots(pass_rows, dslots.dim);
    std::copy(dslots.data.begin(), dslots.data.end(), slots.data.begin());
    DGCL_RETURN_IF_ERROR(passes.Backward(slots));
    resize_slots(num_local, dslots.dim);
    grad_out = &slots;
  }
  DGCL_TSPAN1_IF(traced, "trainer", "layer.bwd.compute", "layer", 0);
  layers[0]->BackwardParamsOnly(g, *grad_out);
  return Status::Ok();
}

Result<EpochResult> DistributedTrainer::TrainEpoch() { return Pass(/*train=*/true, nullptr); }

Result<EpochResult> DistributedTrainer::Evaluate() { return Pass(/*train=*/false, nullptr); }

ReplicaWeights DistributedTrainer::ExportReplica(uint32_t device) {
  DGCL_CHECK(device < replicas_.size());
  return replicas_[device].Export();
}

Status DistributedTrainer::ImportReplica(const ReplicaWeights& weights) {
  // Every replica has the same shapes, so a mismatch fails on the first one
  // before any weight is written.
  for (ModelReplica& replica : replicas_) {
    DGCL_RETURN_IF_ERROR(replica.Import(weights));
  }
  return Status::Ok();
}

Result<EmbeddingMatrix> DistributedTrainer::Logits() {
  EmbeddingMatrix logits;
  DGCL_ASSIGN_OR_RETURN(EpochResult unused, Pass(/*train=*/false, &logits));
  (void)unused;
  return logits;
}

}  // namespace dgcl
