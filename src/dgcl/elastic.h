// Elastic training driver: full-graph GNN training that survives device
// death.
//
// ElasticTrainingSession wraps DgclContext + DistributedTrainer into the
// recovery protocol's end-to-end loop. A normal epoch runs exactly as
// DistributedTrainer::TrainEpoch does, plus lightweight activation
// checkpoints (RecoveryOptions::checkpoint_every_n_layers). When an epoch
// fails with a recoverable Status (kDeadlineExceeded / kUnavailable — the
// dead-peer signatures PR 4's deadline-bounded waits produce), the session:
//
//   detect      read the engine's PassFailure post-mortem (suspect set)
//   membership  commit the failed devices as a new membership epoch
//   repartition fold their vertices into survivors (incremental, no re-METIS)
//   replan      rebuild relation/SPST plan/connection table on the survivors
//   restore     rebuild the trainer on the new layout (its Create builds
//               layer 0's input for that layout), re-import the replica
//               weights (valid: weights only change in a completed step)
//   resume      retry the epoch, restoring checkpointed layer boundaries
//               instead of re-running their allgathers
//
// Every phase is a "recovery.<phase>" telemetry span; the per-phase wall
// times land in recovery_log() (and bench_recovery's MTTR table).

#ifndef DGCL_DGCL_ELASTIC_H_
#define DGCL_DGCL_ELASTIC_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "dgcl/dgcl.h"
#include "gnn/trainer.h"

namespace dgcl {

class ElasticTrainingSession {
 public:
  // `ctx` must have comm_info_ready(); graph/features/labels and the context
  // itself must outlive the session. The session rebuilds its trainer from
  // the context after every recovery, so callers should reach the trainer
  // through trainer() rather than holding their own.
  static Result<ElasticTrainingSession> Create(DgclContext& ctx, const CsrGraph& graph,
                                               const EmbeddingMatrix& features,
                                               const std::vector<uint32_t>& labels,
                                               uint32_t num_classes, TrainerOptions options);

  // One epoch that survives recoverable failures: on a dead device, runs the
  // recovery protocol against the context and retries on the surviving
  // topology (up to RecoveryOptions::max_recoveries across the session).
  // Non-recoverable failures — and failures with recovery disabled — surface
  // unchanged.
  Result<EpochResult> TrainEpoch();

  // Forward-only evaluation on the current (possibly recovered) layout.
  Result<EpochResult> Evaluate();

  DistributedTrainer& trainer() { return *trainer_; }
  const DgclContext& context() const { return *ctx_; }

  // One report per completed recovery, oldest first. resume_seconds is the
  // wall time of the successful retried epoch.
  const std::vector<RecoveryReport>& recovery_log() const { return recovery_log_; }
  uint32_t recoveries() const { return static_cast<uint32_t>(recovery_log_.size()); }

 private:
  ElasticTrainingSession() = default;

  // Tear down the trainer and rebuild it for the context's (post-recovery)
  // layout, carrying the model weights across. Fills report.restore_seconds.
  Status RestoreTrainer(RecoveryReport& report);

  DgclContext* ctx_ = nullptr;
  const CsrGraph* graph_ = nullptr;
  const EmbeddingMatrix* features_ = nullptr;
  const std::vector<uint32_t>* labels_ = nullptr;
  uint32_t num_classes_ = 0;
  TrainerOptions options_;
  std::optional<DistributedTrainer> trainer_;
  EmbeddingCheckpointStore checkpoints_{0};
  std::vector<RecoveryReport> recovery_log_;
};

}  // namespace dgcl

#endif  // DGCL_DGCL_ELASTIC_H_
