// DGCL public API — the library facade of §4.2.
//
// Mirrors the paper's workflow and function names:
//
//   auto ctx = DgclContext::Init(topology);            // init()
//   ctx->BuildCommInfo(graph);                         // buildCommInfo(...)
//   auto parts = ctx->DispatchFeatures(features);      // dispatch_features(...)
//   auto slots = ctx->GraphAllgather(local_embeddings) // graphAllgather(...)
//
// Init sets up the communication environment for the given topology.
// BuildCommInfo partitions the graph (hierarchically when the topology spans
// machines), builds the communication relation, groups it into destination-
// set equivalence classes, runs the configured planning strategy over the
// classes (DgclOptions::planner — batched SPST by default, any strategy of
// PlannerNames() by name, or "auto" for simulated-time selection) and compiles
// the class trees once into the per-vertex send/receive tables the runtime
// executes. GraphAllgather
// is the synchronous embedding exchange used before every layer's graph op;
// GraphAllgatherBackward routes gradients to vertex owners in reverse.
//
// A single-GPU GNN system integrates by training on LocalGraph(d) for each
// device — vertices are re-indexed so the system never sees the distribution.

#ifndef DGCL_DGCL_DGCL_H_
#define DGCL_DGCL_DGCL_H_

#include <memory>
#include <vector>

#include "comm/compiled_plan.h"
#include "comm/relation.h"
#include "common/status.h"
#include "gnn/local_graph.h"
#include "partition/multilevel.h"
#include "partition/partitioner.h"
#include "planner/strategy.h"
#include "planner/spst.h"
#include "runtime/allgather_engine.h"
#include "sim/planner_select.h"
#include "runtime/recovery.h"
#include "topology/topology.h"

namespace dgcl {

struct DgclOptions {
  // Strategy selection and SPST planner knobs. planner.strategy names one
  // of PlannerNames() ("spst" by default; "p2p", "swap") or "auto" to plan
  // with every strategy and commit the one that simulates fastest (the
  // per-candidate scores land in PlanArtifacts::selection). planner.spst
  // carries the SPST knobs, including max_class_units (the class-batching
  // chunk bound; 0 recovers per-vertex planning for ablations). Init
  // validates the planner block and fails with an actionable error before
  // any planning runs.
  PlannerOptions planner;

  MultilevelOptions partition;
  double bytes_per_unit = 1024.0;  // embedding bytes used for planning

  // Runtime knobs handed to AllgatherEngine::Create by BuildCommInfo:
  // straggler injection, transport retry/timeout policy, fault injection and
  // per-pair transport overrides (ablations). None of them change what a
  // pass delivers.
  EngineOptions engine;

  // Checked by Init; topology-dependent parts (override ids, dead_device
  // range) are checked there too, so a bad config fails before any planning.
  Status Validate() const;
};

// Everything BuildCommInfo produces, in pipeline order. Returned by
// DgclContext::artifacts() behind a single lifecycle check. The class plan
// is compiled once, straight into `compiled`; no per-vertex plan is kept
// (ExpandClassPlan rebuilds one from class_plan and classes on demand).
struct PlanArtifacts {
  Partitioning partitioning;  // device assignment per vertex
  CommRelation relation;      // who needs which vertices
  CommClasses classes;        // destination-set equivalence classes
  ClassPlan class_plan;       // class trees from the selected strategy
  CompiledPlan compiled;      // staged transfer ops the runtime executes
  SelectionReport selection;  // strategy scorecards (one entry when forced)
};

class DgclContext {
 public:
  // init(): set up the communication environment for `topology`.
  static Result<DgclContext> Init(Topology topology, DgclOptions options = {});

  DgclContext(DgclContext&&) noexcept;
  DgclContext& operator=(DgclContext&&) noexcept;
  ~DgclContext();

  // buildCommInfo(graph, topology): partition, build the communication
  // relation, run communication planning, compile and arm the runtime.
  Status BuildCommInfo(const CsrGraph& graph);

  // dispatch_features(features): split a global [num_vertices x dim] matrix
  // into per-device local matrices (local_vertices order).
  Result<std::vector<EmbeddingMatrix>> DispatchFeatures(const EmbeddingMatrix& features) const;

  // graphAllgather(local_embeddings): per-device local rows in, per-device
  // slot matrices (locals + required remotes) out. Synchronous.
  Result<std::vector<EmbeddingMatrix>> GraphAllgather(
      const std::vector<EmbeddingMatrix>& local) const;

  // Reverse pass: slot-gradient matrices in, per-owner accumulated local
  // gradients out.
  Result<std::vector<EmbeddingMatrix>> GraphAllgatherBackward(
      const std::vector<EmbeddingMatrix>& slot_grads) const;

  // Device d's re-indexed training graph G_d (locals then remotes).
  Result<LocalGraph> BuildDeviceGraph(uint32_t device) const;

  bool comm_info_ready() const;
  uint32_t num_devices() const;
  const Topology& topology() const;
  const DgclOptions& options() const;

  // The full planning pipeline output. Aborts (DGCL_CHECK) unless
  // comm_info_ready() — the one lifecycle check for all plan state.
  const PlanArtifacts& artifacts() const;

  // The armed runtime (connection table, pass options). Same lifecycle as
  // artifacts().
  const AllgatherEngine& engine() const;

  // --- Elastic fault recovery -------------------------------------------
  //
  // The recovery protocol driver. `suspects` is the failed-device set in the
  // *current* device-id space (normally PassFailure::suspects from
  // engine().last_failure()). Commits a membership epoch, folds the dead
  // devices' vertices into survivors via the incremental repartition, swaps
  // in the surviving (compacted) topology and re-runs the planning pipeline
  // to re-arm the engine. On success the context looks exactly like one
  // freshly built for the surviving topology: num_devices() shrinks, device
  // ids compact, artifacts()/engine() describe the new plan. Every phase is
  // a "recovery.<phase>" telemetry span; the returned report carries the
  // per-phase wall-clock MTTR breakdown. Requires comm_info_ready().
  Result<RecoveryReport> Recover(DeviceMask suspects);

  // Convenience: Recover using the engine's last recorded PassFailure.
  // Fails with kFailedPrecondition when there is no recorded failure, and
  // with the original Status when that failure is not a recoverable kind.
  Result<RecoveryReport> RecoverFromLastFailure();

  // Current membership: epoch counts committed failures across the
  // context's lifetime; `alive` is over the *current* (compacted) id space,
  // so after a successful recovery every current device is alive.
  const MembershipView& membership() const;

  // Current device id -> device id in the topology Init was given (identity
  // until a recovery compacts the id space; composed across recoveries).
  const std::vector<uint32_t>& device_origin() const;

 private:
  DgclContext() = default;

  // Heap state keeps addresses stable across moves (the engine holds
  // pointers into the relation and topology).
  struct State;

  // The planning pipeline downstream of partitioning (relation -> classes ->
  // strategy planning -> compile -> arm engine, which validates), shared
  // by BuildCommInfo and Recover; honors DgclOptions::planner both times.
  static Status PlanAndArm(State& s, const CsrGraph& graph);

  std::unique_ptr<State> state_;
};

}  // namespace dgcl

#endif  // DGCL_DGCL_DGCL_H_
