#include "gnn/trainer.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/ids.h"
#include "common/logging.h"
#include "runtime/allreduce.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

// Keeps rows [0, n) of `m` in place (drops forwarded-extra slot rows).
void ShrinkRows(EmbeddingMatrix& m, uint32_t n) {
  m.rows = n;
  m.data.resize(static_cast<size_t>(n) * m.dim);
}

// A graph.num_slots-row slot matrix holding `locals` (num_compute rows) in
// its local rows and zeros in its remote rows.
EmbeddingMatrix LocalRowsAsSlots(const LocalGraph& graph, const EmbeddingMatrix& locals) {
  EmbeddingMatrix slots = EmbeddingMatrix::Zero(graph.num_slots, locals.dim);
  std::copy(locals.data.begin(),
            locals.data.begin() + static_cast<size_t>(graph.num_compute) * locals.dim,
            slots.data.begin());
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

Result<MiniBatchModel> MiniBatchModel::Create(uint32_t feature_dim, uint32_t num_classes,
                                              TrainerOptions options) {
  if (feature_dim == 0 || num_classes == 0 || options.num_layers == 0) {
    return Status::InvalidArgument("need feature_dim, num_classes and num_layers >= 1");
  }
  MiniBatchModel model;
  model.options_ = options;
  model.num_classes_ = num_classes;
  Rng rng(options.weight_seed);
  uint32_t dim_in = feature_dim;
  for (uint32_t l = 0; l < options.num_layers; ++l) {
    model.layers_.push_back(MakeLayer(options.model, dim_in, options.hidden_dim, rng));
    dim_in = options.hidden_dim;
  }
  model.head_w_ = RandomWeights(options.hidden_dim, num_classes, rng);
  model.head_dw_ = EmbeddingMatrix::Zero(options.hidden_dim, num_classes);
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
  if (CountLabeled(labels) == 0) {
    return Status::FailedPrecondition("no labeled vertices in the block");
  }
  if (train) {
    // Clear any partial accumulations a failed earlier step left behind.
    for (auto& layer : layers_) {
      for (EmbeddingMatrix* g : layer->Grads()) {
        std::fill(g->data.begin(), g->data.end(), 0.0f);
      }
    }
    std::fill(head_dw_.data.begin(), head_dw_.data.end(), 0.0f);
  }
  // Fully-local forward: each layer's output rows are the next layer's slot
  // rows directly (the InferenceForward schedule, kept inline here because
  // backward needs the stack's cached activations).
  EmbeddingMatrix acts = layers_[0]->Forward(block, inputs);
  for (size_t l = 1; l < layers_.size(); ++l) {
    acts = layers_[l]->Forward(block, acts);
  }

  EpochResult result;
  EmbeddingMatrix logits;
  Gemm(acts, head_w_, logits);
  EmbeddingMatrix dlogits;
  result.loss = SoftmaxCrossEntropy(logits, labels, dlogits);
  result.accuracy = Accuracy(logits, labels);
  if (!train) {
    return result;
  }

  EmbeddingMatrix dw;
  GemmTransposeA(acts, dlogits, dw);
  AddInPlace(head_dw_, dw);
  EmbeddingMatrix dacts;
  GemmTransposeB(dlogits, head_w_, dacts);
  for (size_t l = layers_.size(); l-- > 1;) {
    dacts = layers_[l]->Backward(block, dacts);
  }
  layers_[0]->BackwardParamsOnly(block, dacts);  // nobody consumes d(inputs)
  for (auto& layer : layers_) {
    layer->Step(options_.learning_rate);
  }
  for (size_t i = 0; i < head_w_.data.size(); ++i) {
    head_w_.data[i] -= options_.learning_rate * head_dw_.data[i];
  }
  std::fill(head_dw_.data.begin(), head_dw_.data.end(), 0.0f);
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

ReplicaWeights MiniBatchModel::ExportReplica() {
  ReplicaWeights weights;
  weights.layers.reserve(layers_.size());
  for (auto& layer : layers_) {
    std::vector<EmbeddingMatrix> params;
    for (EmbeddingMatrix* p : layer->Params()) {
      params.push_back(*p);
    }
    weights.layers.push_back(std::move(params));
  }
  weights.head = head_w_;
  return weights;
}

Status MiniBatchModel::ImportReplica(const ReplicaWeights& weights) {
  if (weights.layers.size() != layers_.size()) {
    return Status::InvalidArgument("ImportReplica: layer count mismatch");
  }
  for (size_t l = 0; l < layers_.size(); ++l) {
    std::vector<EmbeddingMatrix*> params = layers_[l]->Params();
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
      *params[g] = weights.layers[l][g];
    }
  }
  if (head_w_.rows != weights.head.rows || head_w_.dim != weights.head.dim) {
    return Status::InvalidArgument("ImportReplica: head shape mismatch");
  }
  head_w_ = weights.head;
  return Status::Ok();
}

// One persistent thread per device. Run(body) hands body(d) to thread d and
// returns once every thread has finished its call, so device d's math always
// runs on the same thread: nothing hops between cores, and the matrices a
// device allocates stay in one thread's malloc arena. An exception thrown by a body
// is rethrown by Run on the calling thread, as a sequential loop would.
class DistributedTrainer::DeviceWorkers {
 public:
  explicit DeviceWorkers(uint32_t devices) {
    threads_.reserve(devices);
    for (uint32_t d = 0; d < devices; ++d) {
      threads_.emplace_back([this, d] { Loop(d); });
    }
  }
  DeviceWorkers(const DeviceWorkers&) = delete;  // the threads hold `this`
  DeviceWorkers& operator=(const DeviceWorkers&) = delete;

  ~DeviceWorkers() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    start_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  void Run(const std::function<void(uint32_t)>& body) {
    std::unique_lock<std::mutex> lock(mutex_);
    body_ = &body;
    running_ = threads_.size();
    ++generation_;
    start_.notify_all();
    done_.wait(lock, [this] { return running_ == 0; });
    body_ = nullptr;
    if (error_) {
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
  }

 private:
  void Loop(uint32_t device) {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      const std::function<void(uint32_t)>& body = *body_;
      lock.unlock();
      std::exception_ptr error;
      try {
        body(device);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && !error_) {
        error_ = error;
      }
      if (--running_ == 0) {
        done_.notify_one();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(uint32_t)>* body_ = nullptr;
  uint64_t generation_ = 0;  // bumped once per Run
  size_t running_ = 0;       // workers still inside the current Run's body
  std::exception_ptr error_;  // first exception of the current Run
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: started once the state above exists
};

DistributedTrainer::DistributedTrainer() = default;
DistributedTrainer::DistributedTrainer(DistributedTrainer&&) noexcept = default;
DistributedTrainer& DistributedTrainer::operator=(DistributedTrainer&&) noexcept = default;
DistributedTrainer::~DistributedTrainer() = default;

Result<DistributedTrainer> DistributedTrainer::Create(
    const CsrGraph& graph, const CommRelation& relation, const AllgatherEngine& engine,
    const EmbeddingMatrix& features, const std::vector<uint32_t>& labels, uint32_t num_classes,
    TrainerOptions options) {
  if (features.rows != graph.num_vertices() || labels.size() != graph.num_vertices()) {
    return Status::InvalidArgument("features/labels must cover every vertex");
  }
  if (options.num_layers == 0 || num_classes == 0) {
    return Status::InvalidArgument("need at least one layer and one class");
  }
  if (options.aggregate_every_r == 0) {
    return Status::InvalidArgument(
        "aggregate_every_r must be >= 1 (1 = synchronous, r = exchange every r-th epoch)");
  }
  DistributedTrainer trainer;
  trainer.relation_ = &relation;
  trainer.engine_ = &engine;
  trainer.options_ = options;
  trainer.num_classes_ = num_classes;

  const uint32_t devices = relation.num_devices;
  trainer.local_graphs_.reserve(devices);
  trainer.local_features_.reserve(devices);
  trainer.local_labels_.resize(devices);
  trainer.layers_.resize(devices);
  for (uint32_t d = 0; d < devices; ++d) {
    trainer.local_graphs_.push_back(BuildLocalGraph(graph, relation, d));
    const auto& locals = relation.local_vertices[d];
    EmbeddingMatrix feat = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()),
                                                 features.dim);
    for (uint32_t i = 0; i < locals.size(); ++i) {
      std::copy(features.Row(locals[i]), features.Row(locals[i]) + features.dim, feat.Row(i));
    }
    trainer.local_features_.push_back(std::move(feat));
    for (VertexId v : locals) {
      trainer.local_labels_[d].push_back(labels[v]);
    }
    // Identical weight replica per device: fresh identically-seeded Rng.
    Rng rng(options.weight_seed);
    uint32_t dim_in = features.dim;
    for (uint32_t l = 0; l < options.num_layers; ++l) {
      trainer.layers_[d].push_back(MakeLayer(options.model, dim_in, options.hidden_dim, rng));
      dim_in = options.hidden_dim;
    }
    trainer.head_w_.push_back(RandomWeights(options.hidden_dim, num_classes, rng));
    trainer.head_dw_.push_back(EmbeddingMatrix::Zero(options.hidden_dim, num_classes));
  }
  trainer.workers_ = std::make_unique<DeviceWorkers>(devices);
  return trainer;
}

Result<EpochResult> DistributedTrainer::Pass(bool train, EmbeddingMatrix* all_logits,
                                             const EpochHooks& hooks) {
  const uint32_t devices = relation_->num_devices;
  DGCL_TSPAN2("trainer", train ? "epoch.train" : "epoch.eval", "devices", devices, "layers",
              options_.num_layers);
  if (train) {
    // A previous pass that failed mid-backward may have left partial
    // parameter-gradient accumulations behind (weights are only touched by
    // the all-or-nothing synchronized step, so *they* are always clean).
    // Re-zero so a retried epoch reproduces a fresh one exactly.
    workers_->Run([&](uint32_t d) {
      for (auto& layer : layers_[d]) {
        for (EmbeddingMatrix* g : layer->Grads()) {
          std::fill(g->data.begin(), g->data.end(), 0.0f);
        }
      }
      std::fill(head_dw_[d].data.begin(), head_dw_[d].data.end(), 0.0f);
    });
  }
  // `inputs` holds the activations entering layer l: the local features
  // themselves (read in place) for layer 0, then each layer's output `acts`.
  std::vector<EmbeddingMatrix> acts(devices);
  const std::vector<EmbeddingMatrix>* inputs = &local_features_;

  // cd-r: a training epoch is stale when it is not a multiple of r and a
  // fresh exchange has already populated the remote-row cache; it reuses the
  // cached rows and skips both directions of communication. Eval passes are
  // always fresh.
  const bool stale = train && options_.aggregate_every_r > 1 &&
                     (train_epochs_ % options_.aggregate_every_r) != 0 &&
                     !stale_remote_.empty();

  for (uint32_t l = 0; l < options_.num_layers; ++l, inputs = &acts) {
    const EmbeddingCheckpoint* ckpt =
        (hooks.checkpoints != nullptr && hooks.restore) ? hooks.checkpoints->Find(l) : nullptr;
    if (ckpt != nullptr) {
      // Restore path: the activations entering this layer were snapshotted by
      // the failed pass (weights unchanged since — see ExportReplica), so the
      // slot inputs come straight from the global checkpoint and this layer's
      // allgather is skipped. Local compute still runs below, keeping every
      // layer's backward cache exact.
      DGCL_TSPAN1("recovery", "recovery.restore.layer", "layer", l);
      workers_->Run([&](uint32_t d) {
        EmbeddingMatrix trimmed =
            EmbeddingMatrix::Zero(local_graphs_[d].num_slots, ckpt->acts.dim);
        uint32_t row = 0;
        for (VertexId v : relation_->local_vertices[d]) {
          std::copy(ckpt->acts.Row(v), ckpt->acts.Row(v) + ckpt->acts.dim, trimmed.Row(row++));
        }
        for (VertexId v : relation_->remote_vertices[d]) {
          std::copy(ckpt->acts.Row(v), ckpt->acts.Row(v) + ckpt->acts.dim, trimmed.Row(row++));
        }
        acts[d] = layers_[d][l]->Forward(local_graphs_[d], trimmed);
      });
      continue;
    }
    if (hooks.checkpoints != nullptr && l >= 1 && hooks.checkpoints->ShouldCheckpoint(l) &&
        hooks.checkpoints->Find(l) == nullptr) {
      // Snapshot the boundary *before* attempting the allgather: if the
      // exchange below dies, the retry resumes from this very layer. Devices
      // own disjoint rows of the snapshot.
      DGCL_TSPAN1("recovery", "recovery.checkpoint.save", "layer", l);
      const uint32_t dim = layers_[0][l]->dim_in();
      EmbeddingMatrix global =
          EmbeddingMatrix::Zero(static_cast<uint32_t>(relation_->source.size()), dim);
      workers_->Run([&](uint32_t d) {
        const auto& locals = relation_->local_vertices[d];
        for (uint32_t i = 0; i < locals.size(); ++i) {
          std::copy(acts[d].Row(i), acts[d].Row(i) + dim, global.Row(locals[i]));
        }
      });
      hooks.checkpoints->Save(l, std::move(global));
    }
    if (stale) {
      // Stale epoch: slot inputs are fresh local rows plus the remote rows
      // cached at the last exchange; no communication for this layer.
      DGCL_TSPAN1("trainer", "layer.stale_reuse", "layer", l);
      workers_->Run([&](uint32_t d) {
        const LocalGraph& g = local_graphs_[d];
        const EmbeddingMatrix& cached = stale_remote_[l][d];
        EmbeddingMatrix trimmed = LocalRowsAsSlots(g, (*inputs)[d]);
        std::copy(cached.data.begin(), cached.data.end(),
                  trimmed.data.begin() + static_cast<size_t>(g.num_compute) * trimmed.dim);
        acts[d] = layers_[d][l]->Forward(g, trimmed);
      });
      continue;
    }
    std::vector<EmbeddingMatrix> slots(devices);
    if (engine_->options().overlap.num_chunks > 1) {
      // Overlapped exchange: consume each chunk as its flag publishes — the
      // first stage of aggregation (materializing the compute-side slot
      // matrix) runs while later chunks are still on the wire, instead of
      // after the pass barrier. Each callback fires on the receiving
      // device's pass thread and writes only that device's matrix, so
      // callbacks race neither with each other nor with this thread (which
      // blocks in Forward until every pass thread has joined). Rows land via
      // the same copies the barrier path makes, so the result is
      // bit-identical; the neighbor-sum itself still runs after the pass
      // because reassociating it per arrival order would break that
      // guarantee.
      DGCL_TSPAN1("trainer", "layer.allgather.overlap", "layer", l);
      workers_->Run(
          [&](uint32_t d) { slots[d] = LocalRowsAsSlots(local_graphs_[d], (*inputs)[d]); });
      auto on_chunk = [&](const ChunkArrival& a) {
        const TransferOp& op = engine_->plan().ops[a.op];
        const LocalGraph& g = local_graphs_[a.device];
        EmbeddingMatrix& t = slots[a.device];
        for (uint32_t i = a.row_begin; i < a.row_end; ++i) {
          const uint32_t slot = engine_->SlotOf(a.device, op.vertices[i]);
          if (slot < g.num_slots) {
            std::copy(a.output->Row(slot), a.output->Row(slot) + a.dim, t.Row(slot));
          }
        }
      };
      // The returned matrices are the ones already consumed chunk by chunk.
      DGCL_RETURN_IF_ERROR(engine_->Forward(*inputs, on_chunk).status());
    } else {
      DGCL_TSPAN1("trainer", "layer.allgather", "layer", l);
      DGCL_ASSIGN_OR_RETURN(slots, engine_->Forward(*inputs));
    }
    DGCL_TSPAN1("trainer", "layer.compute", "layer", l);
    if (train && options_.aggregate_every_r > 1 && stale_remote_.empty()) {
      stale_remote_.resize(options_.num_layers, std::vector<EmbeddingMatrix>(devices));
    }
    // The workers shrink and read `slots`; this thread, which allocated it
    // inside the engine, frees it at the end of the layer.
    workers_->Run([&](uint32_t d) {
      const LocalGraph& g = local_graphs_[d];
      EmbeddingMatrix& trimmed = slots[d];
      ShrinkRows(trimmed, g.num_slots);
      if (train && options_.aggregate_every_r > 1) {
        // Refresh the cache the stale epochs will reuse until the next
        // exchange.
        const uint32_t remotes = g.num_slots - g.num_compute;
        EmbeddingMatrix cached = EmbeddingMatrix::Zero(remotes, trimmed.dim);
        std::copy(trimmed.data.begin() + static_cast<size_t>(g.num_compute) * trimmed.dim,
                  trimmed.data.end(), cached.data.begin());
        stale_remote_[l][d] = std::move(cached);
      }
      acts[d] = layers_[d][l]->Forward(g, trimmed);
    });
  }

  // Classification head and loss.
  uint32_t total_labeled = 0;
  for (uint32_t d = 0; d < devices; ++d) {
    total_labeled += CountLabeled(local_labels_[d]);
  }
  if (total_labeled == 0) {
    return Status::FailedPrecondition("no labeled vertices");
  }
  // Device d's share of the labeled vertices: rescales its per-device mean
  // loss (and gradient) to the global mean.
  std::vector<double> share(devices);
  for (uint32_t d = 0; d < devices; ++d) {
    share[d] = static_cast<double>(CountLabeled(local_labels_[d])) / total_labeled;
  }
  if (all_logits != nullptr) {
    *all_logits = EmbeddingMatrix::Zero(
        static_cast<uint32_t>(relation_->source.size()), num_classes_);
  }

  // Head forward, loss, and (training) head backward, per device.
  std::vector<double> loss(devices);
  std::vector<double> accuracy(devices);
  std::vector<EmbeddingMatrix> dacts(devices);
  workers_->Run([&](uint32_t d) {
    EmbeddingMatrix logits;
    Gemm(acts[d], head_w_[d], logits);
    EmbeddingMatrix dlogits;
    loss[d] = SoftmaxCrossEntropy(logits, local_labels_[d], dlogits);
    accuracy[d] = Accuracy(logits, local_labels_[d]);
    if (all_logits != nullptr) {
      const auto& locals = relation_->local_vertices[d];
      for (uint32_t i = 0; i < locals.size(); ++i) {
        std::copy(logits.Row(i), logits.Row(i) + num_classes_, all_logits->Row(locals[i]));
      }
    }
    if (!train) {
      return;
    }
    ScaleInPlace(dlogits, static_cast<float>(share[d]));
    EmbeddingMatrix dw;
    GemmTransposeA(acts[d], dlogits, dw);
    AddInPlace(head_dw_[d], dw);
    GemmTransposeB(dlogits, head_w_[d], dacts[d]);
  });
  EpochResult result;
  for (uint32_t d = 0; d < devices; ++d) {
    result.loss += loss[d] * share[d];
    result.accuracy += accuracy[d] * share[d];
  }
  if (!train) {
    return result;
  }

  // Backward through the GNN layers, routing remote gradients home. Layer 0
  // accumulates only its parameter gradients: the input-feature gradient is
  // never consumed, so it is neither formed nor exchanged.
  for (uint32_t l = options_.num_layers; l-- > 0;) {
    std::vector<EmbeddingMatrix> dslots(devices);
    {
      DGCL_TSPAN1("trainer", "layer.bwd.compute", "layer", l);
      workers_->Run([&](uint32_t d) {
        if (l == 0) {
          layers_[d][0]->BackwardParamsOnly(local_graphs_[d], dacts[d]);
          return;
        }
        dslots[d] = layers_[d][l]->Backward(local_graphs_[d], dacts[d]);
        if (stale) {
          // cd-r: the delayed remote-gradient contributions are dropped;
          // every owner keeps the gradient its own compute produced for its
          // local rows, and no exchange runs.
          ShrinkRows(dslots[d], local_graphs_[d].num_compute);
          dacts[d] = std::move(dslots[d]);
        }
      });
    }
    if (l == 0 || stale) {
      continue;
    }
    DGCL_TSPAN1("trainer", "layer.bwd.allgather", "layer", l);
    DGCL_ASSIGN_OR_RETURN(dacts, engine_->Backward(dslots));
  }

  // Gradient synchronization (allreduce-sum) across replicas, then step.
  // Each device's parameter gradient is a *partial sum* over its local
  // vertices of the globally-normalized loss, so the reduce is a sum, not a
  // mean — summing reproduces the single-device gradient exactly.
  DGCL_TSPAN("trainer", "grad.sync");
  auto sync = [&](std::vector<EmbeddingMatrix*> replicas) -> Status {
    if (options_.use_ring_allreduce) {
      DGCL_ASSIGN_OR_RETURN(AllReduceStats stats, RingAllReduceSum(std::move(replicas)));
      (void)stats;
      return Status::Ok();
    }
    for (uint32_t d = 1; d < devices; ++d) {
      AddInPlace(*replicas[0], *replicas[d]);
    }
    for (uint32_t d = 1; d < devices; ++d) {
      *replicas[d] = *replicas[0];
    }
    return Status::Ok();
  };
  for (uint32_t l = 0; l < options_.num_layers; ++l) {
    const size_t grads_per_layer = layers_[0][l]->Grads().size();
    for (size_t g = 0; g < grads_per_layer; ++g) {
      std::vector<EmbeddingMatrix*> replicas;
      replicas.reserve(devices);
      for (uint32_t d = 0; d < devices; ++d) {
        replicas.push_back(layers_[d][l]->Grads()[g]);
      }
      DGCL_RETURN_IF_ERROR(sync(std::move(replicas)));
    }
    for (uint32_t d = 0; d < devices; ++d) {
      layers_[d][l]->Step(options_.learning_rate);
    }
  }
  {
    std::vector<EmbeddingMatrix*> replicas;
    replicas.reserve(devices);
    for (uint32_t d = 0; d < devices; ++d) {
      replicas.push_back(&head_dw_[d]);
    }
    DGCL_RETURN_IF_ERROR(sync(std::move(replicas)));
  }
  for (uint32_t d = 0; d < devices; ++d) {
    for (size_t i = 0; i < head_w_[d].data.size(); ++i) {
      head_w_[d].data[i] -= options_.learning_rate * head_dw_[d].data[i];
    }
    std::fill(head_dw_[d].data.begin(), head_dw_[d].data.end(), 0.0f);
  }
  return result;
}

Result<EpochResult> DistributedTrainer::TrainEpoch() { return TrainEpoch(EpochHooks{}); }

Result<EpochResult> DistributedTrainer::TrainEpoch(const EpochHooks& hooks) {
  Result<EpochResult> result = Pass(/*train=*/true, nullptr, hooks);
  if (result.ok()) {
    ++train_epochs_;  // only completed epochs advance the cd-r schedule
  }
  return result;
}

Result<EpochResult> DistributedTrainer::Evaluate() { return Pass(/*train=*/false, nullptr); }

ReplicaWeights DistributedTrainer::ExportReplica(uint32_t device) {
  DGCL_CHECK(device < layers_.size());
  ReplicaWeights weights;
  weights.layers.reserve(options_.num_layers);
  for (uint32_t l = 0; l < options_.num_layers; ++l) {
    std::vector<EmbeddingMatrix> params;
    for (EmbeddingMatrix* p : layers_[device][l]->Params()) {
      params.push_back(*p);
    }
    weights.layers.push_back(std::move(params));
  }
  weights.head = head_w_[device];
  return weights;
}

Status DistributedTrainer::ImportReplica(const ReplicaWeights& weights) {
  if (weights.layers.size() != options_.num_layers) {
    return Status::InvalidArgument("ImportReplica: layer count mismatch");
  }
  for (uint32_t d = 0; d < layers_.size(); ++d) {
    for (uint32_t l = 0; l < options_.num_layers; ++l) {
      std::vector<EmbeddingMatrix*> params = layers_[d][l]->Params();
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
        *params[g] = weights.layers[l][g];
      }
    }
    if (head_w_[d].rows != weights.head.rows || head_w_[d].dim != weights.head.dim) {
      return Status::InvalidArgument("ImportReplica: head shape mismatch");
    }
    head_w_[d] = weights.head;
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
