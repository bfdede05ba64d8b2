// Sampled mini-batch training driven by the serving tier.
//
// Closes the DistDGL-style loop the service left open: instead of serving
// inference only, the GraphService's sampler now feeds a trainer. One epoch
// = `batches_per_epoch` mini-batches; batch b of epoch e is sampled by home
// shard (b mod num_shards) with a per-batch seed mixed as
// MixSeed(sample.seed, epoch, b) — the whole training schedule is a pure
// function of the options, like every other sampled artifact. The strategy
// is the service's (ServiceOptions::sampler); to train with another one,
// create the service with it. The sampled nodes' feature rows ride back on
// the response (SampleRequest::return_features), which also exercises the
// remote-fetch path — cache, connection pricing, and cross-request batching
// — under training load, and the MiniBatchModel (gnn/trainer.h) runs
// forward/backward/SGD on the induced block.
//
// Epoch boundaries reuse the weight export/import that carries the model
// across a full-graph recovery: after every completed epoch the model's
// ReplicaWeights are snapshotted; a mid-epoch
// failure (e.g. a shard died under the sampler — the same kUnavailable
// fail-fast the inference path has) leaves the model partially stepped, and
// RestoreCheckpoint rewinds it to the epoch boundary so the retried epoch
// reproduces a fresh one exactly.
//
// The acceptance contract (minibatch_trainer_test): on the community-graph
// fixture, the mini-batch loss trajectory must close most of the gap the
// full-graph DistributedTrainer closes, and recovery-restored epochs must be
// byte-identical to never-failed ones.

#ifndef DGCL_SERVICE_MINIBATCH_TRAINER_H_
#define DGCL_SERVICE_MINIBATCH_TRAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "gnn/trainer.h"
#include "service/service.h"

namespace dgcl {

struct MiniBatchTrainerOptions {
  // Model/optimizer knobs; weight_seed makes the starting replica identical
  // to a full-graph trainer created with the same options.
  TrainerOptions trainer;
  uint32_t batch_seeds = 32;       // seed vertices per mini-batch
  uint32_t batches_per_epoch = 8;  // home shards rotate round-robin
  // hops/fanout per batch; `seed` is the base of the per-(epoch, batch)
  // schedule, not used directly.
  SampleKHopOptions sample;

  Status Validate() const;
};

class MiniBatchTrainer {
 public:
  // `service` must outlive the trainer (Start() not required — batches go
  // through the synchronous Serve path). `labels` has one entry per vertex
  // of service->graph(), kInvalidId = unlabeled.
  static Result<std::unique_ptr<MiniBatchTrainer>> Create(GraphService* service,
                                                          std::vector<uint32_t> labels,
                                                          uint32_t num_classes,
                                                          MiniBatchTrainerOptions options);

  // Runs one epoch of sampled mini-batch SGD. Returns the labeled-row-
  // weighted mean loss/accuracy over the epoch's batches, and snapshots the
  // epoch-boundary checkpoint on success. A dead replica is invisible here
  // while its shard has survivors: Serve routes each batch to a live
  // replica. On failure (a batch touched a dead shard) the model may be
  // partially stepped — call RestoreCheckpoint before retrying.
  Result<EpochResult> TrainEpoch();

  // Full-graph evaluation of the current weights over service->graph() and
  // the service's feature matrix (the measuring stick the loss-trajectory
  // test compares against full-graph training).
  Result<EpochResult> Evaluate();

  // Last epoch-boundary weights (the initial weights before any epoch).
  const ReplicaWeights& checkpoint() const { return checkpoint_; }
  // Rewinds the model to `checkpoint()`.
  Status RestoreCheckpoint();

  uint64_t epochs() const { return epochs_; }

 private:
  explicit MiniBatchTrainer(MiniBatchModel model) : model_(std::move(model)) {}

  GraphService* service_ = nullptr;
  std::vector<uint32_t> labels_;
  MiniBatchTrainerOptions options_;
  MiniBatchModel model_;
  ReplicaWeights checkpoint_;
  uint64_t epochs_ = 0;
};

}  // namespace dgcl

#endif  // DGCL_SERVICE_MINIBATCH_TRAINER_H_
