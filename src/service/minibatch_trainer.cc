#include "service/minibatch_trainer.h"

#include <utility>

#include "common/ids.h"
#include "gnn/local_graph.h"
#include "graph/khop.h"
#include "telemetry/trace.h"

namespace dgcl {

Status MiniBatchTrainerOptions::Validate() const {
  if (batch_seeds == 0) {
    return Status::InvalidArgument("batch_seeds must be >= 1");
  }
  if (batches_per_epoch == 0) {
    return Status::InvalidArgument("batches_per_epoch must be >= 1");
  }
  if (sample.fanout == 0) {
    return Status::InvalidArgument("sample.fanout must be >= 1");
  }
  return Status::Ok();
}

Result<std::unique_ptr<MiniBatchTrainer>> MiniBatchTrainer::Create(
    GraphService* service, std::vector<uint32_t> labels, uint32_t num_classes,
    MiniBatchTrainerOptions options) {
  if (service == nullptr) {
    return Status::InvalidArgument("MiniBatchTrainer needs a service");
  }
  DGCL_RETURN_IF_ERROR(options.Validate());
  if (labels.size() != service->graph().num_vertices()) {
    return Status::InvalidArgument("labels must cover every vertex");
  }
  DGCL_RETURN_IF_ERROR(ValidateLabels(labels, num_classes));
  DGCL_ASSIGN_OR_RETURN(
      MiniBatchModel model,
      MiniBatchModel::Create(service->options().feature_dim, num_classes, options.trainer));
  std::unique_ptr<MiniBatchTrainer> trainer(new MiniBatchTrainer(std::move(model)));
  trainer->service_ = service;
  trainer->labels_ = std::move(labels);
  trainer->options_ = std::move(options);
  trainer->checkpoint_ = trainer->model_.ExportReplica();
  return trainer;
}

Result<EpochResult> MiniBatchTrainer::TrainEpoch() {
  DGCL_TSPAN2("service", "train.epoch", "epoch", epochs_, "batches",
              options_.batches_per_epoch);
  const CsrGraph& graph = service_->graph();
  const uint32_t num_shards = service_->options().num_shards;
  double loss = 0.0;
  double accuracy = 0.0;
  uint64_t total_labeled = 0;
  for (uint32_t b = 0; b < options_.batches_per_epoch; ++b) {
    const uint32_t home = b % num_shards;
    SampleRequest request;
    request.request_id = epochs_ * options_.batches_per_epoch + b;
    request.shard = home;
    request.num_seeds = options_.batch_seeds;
    request.sample = options_.sample;
    // The per-batch seed schedule: a pure function of (base seed, epoch,
    // batch), so every epoch visits fresh mini-batches and a retried epoch
    // re-samples the very same ones.
    request.sample.seed = MixSeed(options_.sample.seed, epochs_, b);
    request.return_features = true;
    SampleResponse response = service_->Serve(std::move(request));
    if (!response.status.ok()) {
      return response.status;
    }
    std::vector<uint32_t> batch_labels;
    batch_labels.reserve(response.nodes.size());
    uint64_t labeled = 0;
    for (VertexId v : response.nodes) {
      batch_labels.push_back(labels_[v]);
      if (labels_[v] != kInvalidId) {
        ++labeled;
      }
    }
    if (labeled == 0) {
      continue;  // fully-unlabeled batch: nothing to step on
    }
    CsrGraph subgraph = graph.InducedSubgraph(response.nodes);
    LocalGraph block = FullLocalGraph(subgraph);
    BuildReaders(block);  // for the backward scatter of every layer
    EpochResult step;
    {
      DGCL_TSPAN2("service", "train.step", "shard", b % num_shards, "nodes",
                  response.nodes.size());
      DGCL_ASSIGN_OR_RETURN(step, model_.Step(block, response.features, batch_labels));
    }
    loss += step.loss * static_cast<double>(labeled);
    accuracy += step.accuracy * static_cast<double>(labeled);
    total_labeled += labeled;
  }
  if (total_labeled == 0) {
    return Status::FailedPrecondition("no labeled vertices sampled this epoch");
  }
  ++epochs_;
  checkpoint_ = model_.ExportReplica();
  EpochResult result;
  result.loss = loss / static_cast<double>(total_labeled);
  result.accuracy = accuracy / static_cast<double>(total_labeled);
  return result;
}

Result<EpochResult> MiniBatchTrainer::Evaluate() {
  LocalGraph block = FullLocalGraph(service_->graph());
  return model_.Evaluate(block, service_->features(), labels_);
}

Status MiniBatchTrainer::RestoreCheckpoint() { return model_.ImportReplica(checkpoint_); }

}  // namespace dgcl
