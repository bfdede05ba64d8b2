// Elastic training driver: full-graph GNN training that survives device
// death.
//
// ElasticTrainingSession wraps DgclContext + DistributedTrainer into the
// recovery protocol's end-to-end loop. Every epoch runs exactly as
// DistributedTrainer::TrainEpoch does. When an epoch fails with a
// recoverable Status (kDeadlineExceeded / kUnavailable — the dead-peer
// signatures of the engine's deadline-bounded waits), the session:
//
//   detect      read the engine's PassFailure post-mortem (suspect set)
//   membership  commit the failed devices as a new membership epoch
//   repartition fold their vertices into survivors (incremental, no re-METIS)
//   replan      rebuild relation/SPST plan/connection table on the survivors
//   restore     rebuild the trainer on the new layout (its Create builds
//               layer 0's input for that layout), re-import the replica
//               weights (valid: weights only change in a completed step)
//   resume      run the epoch again on the survivors, allgathers and all:
//               training is full-graph and synchronous, so the retried
//               epoch computes the same global gradient on any layout
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
  // topology, for as long as a survivor remains. Every recovery commits at
  // least one dead device and the last device is never committed, so a
  // session makes at most num_devices - 1 recoveries. Non-recoverable
  // failures surface unchanged; a failure the protocol cannot commit (no
  // suspect, or no survivor left) surfaces the protocol's error.
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
  std::vector<RecoveryReport> recovery_log_;
};

}  // namespace dgcl

#endif  // DGCL_DGCL_ELASTIC_H_
