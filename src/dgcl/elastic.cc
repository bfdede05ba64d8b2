#include "dgcl/elastic.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

Result<ElasticTrainingSession> ElasticTrainingSession::Create(
    DgclContext& ctx, const CsrGraph& graph, const EmbeddingMatrix& features,
    const std::vector<uint32_t>& labels, uint32_t num_classes, TrainerOptions options) {
  if (!ctx.comm_info_ready()) {
    return Status::FailedPrecondition("ElasticTrainingSession: BuildCommInfo not called");
  }
  ElasticTrainingSession session;
  session.ctx_ = &ctx;
  session.graph_ = &graph;
  session.features_ = &features;
  session.labels_ = &labels;
  session.num_classes_ = num_classes;
  session.options_ = options;
  DGCL_ASSIGN_OR_RETURN(
      DistributedTrainer trainer,
      DistributedTrainer::Create(graph, ctx.artifacts().relation, ctx.engine(), features, labels,
                                 num_classes, options));
  session.trainer_.emplace(std::move(trainer));
  return session;
}

Status ElasticTrainingSession::RestoreTrainer(RecoveryReport& report) {
  DGCL_TSPAN("recovery", "recovery.restore");
  const auto t0 = std::chrono::steady_clock::now();
  // Any replica's weights are *the* model: weights only ever change inside a
  // fully-completed synchronized step, so at every possible failure point
  // each replica still holds the epoch-start weights.
  ReplicaWeights weights = trainer_->ExportReplica();
  trainer_.reset();
  DGCL_ASSIGN_OR_RETURN(
      DistributedTrainer trainer,
      DistributedTrainer::Create(*graph_, ctx_->artifacts().relation, ctx_->engine(), *features_,
                                 *labels_, num_classes_, options_));
  trainer_.emplace(std::move(trainer));
  DGCL_RETURN_IF_ERROR(trainer_->ImportReplica(weights));
  report.restore_seconds = SecondsSince(t0);
  return Status::Ok();
}

Result<EpochResult> ElasticTrainingSession::TrainEpoch() {
  Result<EpochResult> result = trainer_->TrainEpoch();
  while (!result.ok()) {
    if (!IsRecoverableFailure(result.status())) {
      return result;
    }
    // Ends the loop: a commit that would leave no survivor fails here.
    DGCL_ASSIGN_OR_RETURN(RecoveryReport report, ctx_->RecoverFromLastFailure());
    DGCL_RETURN_IF_ERROR(RestoreTrainer(report));
    const auto t0 = std::chrono::steady_clock::now();
    {
      DGCL_TSPAN1("recovery", "recovery.resume", "epoch", report.epoch);
      result = trainer_->TrainEpoch();
    }
    if (result.ok()) {
      report.resume_seconds = SecondsSince(t0);
    }
    recovery_log_.push_back(std::move(report));
  }
  return result;
}

Result<EpochResult> ElasticTrainingSession::Evaluate() { return trainer_->Evaluate(); }

}  // namespace dgcl
