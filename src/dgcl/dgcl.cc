#include "dgcl/dgcl.h"

#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "partition/hierarchical.h"
#include "partition/multilevel.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

struct DgclContext::State {
  Topology topology;
  DgclOptions options;
  const CsrGraph* graph = nullptr;  // set by BuildCommInfo; caller-owned
  PlanArtifacts artifacts;
  std::optional<AllgatherEngine> engine;
  MembershipService membership{0};
  // Current device id -> device id of the topology Init was given.
  std::vector<uint32_t> device_origin;
};

DgclContext::DgclContext(DgclContext&&) noexcept = default;
DgclContext& DgclContext::operator=(DgclContext&&) noexcept = default;
DgclContext::~DgclContext() = default;

Status DgclOptions::Validate() const {
  if (!(bytes_per_unit > 0.0) || !std::isfinite(bytes_per_unit)) {
    return Status::InvalidArgument("bytes_per_unit must be positive and finite");
  }
  DGCL_RETURN_IF_ERROR(planner.Validate());
  return engine.Validate();
}

Result<DgclContext> DgclContext::Init(Topology topology, DgclOptions options) {
  DGCL_RETURN_IF_ERROR(options.Validate());
  if (topology.num_devices() == 0) {
    return Status::InvalidArgument("topology has no devices");
  }
  if (topology.num_devices() > 1 && !topology.IsFullyConnected()) {
    return Status::InvalidArgument("topology must define a link for every device pair");
  }
  // Topology-dependent option checks, so a bad config fails at Init rather
  // than deep inside BuildCommInfo.
  DGCL_RETURN_IF_ERROR(ValidateTransportOverrides(topology, options.engine.transport_overrides));
  if (options.engine.faults.dead_device != kInvalidId &&
      options.engine.faults.dead_device >= topology.num_devices()) {
    return Status::InvalidArgument("dead_device out of range");
  }
  DgclContext ctx;
  ctx.state_ = std::make_unique<State>();
  ctx.state_->topology = std::move(topology);
  ctx.state_->options = std::move(options);
  ctx.state_->membership = MembershipService(ctx.state_->topology.num_devices());
  ctx.state_->device_origin.resize(ctx.state_->topology.num_devices());
  std::iota(ctx.state_->device_origin.begin(), ctx.state_->device_origin.end(), 0u);
  return ctx;
}

// The downstream planning pipeline — relation, class grouping, strategy
// planning, compile, arm the engine — from an already-set
// s.artifacts.partitioning. BuildCommInfo runs it after the partition phase;
// Recover re-runs it against the surviving topology with the incrementally
// repaired partitioning.
Status DgclContext::PlanAndArm(State& s, const CsrGraph& graph) {
  PlanArtifacts& a = s.artifacts;
  {
    DGCL_TSPAN("dgcl", "phase.relation");
    DGCL_ASSIGN_OR_RETURN(a.relation, BuildCommRelation(graph, a.partitioning));
    a.classes = BuildCommClasses(a.relation);
  }
  {
    DGCL_TSPAN("dgcl", "phase.plan");
    // Plan with the configured strategy ("auto" plans with every strategy
    // and commits the one that simulates fastest; the scorecards land in
    // a.selection either way).
    DGCL_ASSIGN_OR_RETURN(a.class_plan,
                          PlanWithStrategy(s.options.planner, a.classes, s.topology,
                                           s.options.bytes_per_unit, &a.selection));
  }
  {
    DGCL_TSPAN("dgcl", "phase.compile");
    // Compile straight from the class trees: byte-identical tables to
    // compiling the expanded plan, without touching the per-vertex trees.
    a.compiled = CompilePlan(a.class_plan, a.classes, s.topology);
    AssignBackwardSubstages(a.compiled);
  }
  // Create checks the compiled plan (ValidateCompiledPlan) before arming.
  DGCL_TSPAN("dgcl", "phase.arm_engine");
  DGCL_ASSIGN_OR_RETURN(AllgatherEngine engine, AllgatherEngine::Create(a.relation, a.compiled,
                                                                        s.topology,
                                                                        s.options.engine));
  s.engine.emplace(std::move(engine));
  s.graph = &graph;
  return Status::Ok();
}

Status DgclContext::BuildCommInfo(const CsrGraph& graph) {
  State& s = *state_;
  DGCL_TSPAN2("dgcl", "build_comm_info", "vertices", graph.num_vertices(), "devices",
              s.topology.num_devices());
  MultilevelPartitioner partitioner(s.options.partition);
  {
    DGCL_TSPAN("dgcl", "phase.partition");
    DGCL_ASSIGN_OR_RETURN(s.artifacts.partitioning,
                          PartitionForTopology(graph, s.topology, partitioner));
  }
  return PlanAndArm(s, graph);
}

Result<RecoveryReport> DgclContext::Recover(DeviceMask suspects) {
  State& s = *state_;
  if (!s.engine.has_value() || s.graph == nullptr) {
    return Status::FailedPrecondition("Recover: BuildCommInfo not called");
  }
  DGCL_TSPAN2("recovery", "recovery.protocol", "suspects", suspects, "epoch",
              s.membership.view().epoch);

  RecoveryReport report;
  const DeviceMask effective = suspects & s.membership.view().alive;

  // Phase: membership — the lowest-id survivor commits the failed set as a
  // new epoch; a bad suspect set fails here with every artifact untouched.
  MembershipView view;
  {
    DGCL_TSPAN("recovery", "recovery.membership");
    const auto t0 = std::chrono::steady_clock::now();
    DGCL_ASSIGN_OR_RETURN(view, s.membership.CommitFailure(suspects));
    report.membership_seconds = SecondsSince(t0);
  }
  report.epoch = view.epoch;
  report.survivors = view.NumAlive();
  for (uint32_t d = 0; d < s.topology.num_devices(); ++d) {
    if ((effective >> d) & 1) {
      report.failed_devices.push_back(d);
    }
  }

  // Phase: repartition — derive the surviving (compacted) topology and fold
  // the dead devices' vertices into survivors over the existing equivalence
  // classes, all computed before any state is mutated.
  SurvivingTopology surviving;
  Partitioning repaired;
  {
    DGCL_TSPAN("recovery", "recovery.repartition");
    const auto t0 = std::chrono::steady_clock::now();
    DGCL_ASSIGN_OR_RETURN(surviving, BuildSurvivingTopology(s.topology, view));
    RepartitionStats stats;
    DGCL_ASSIGN_OR_RETURN(
        Partitioning moved,
        IncrementalRepartition(s.artifacts.classes, s.artifacts.partitioning, view, &stats));
    DGCL_ASSIGN_OR_RETURN(repaired, RemapPartitioning(moved, surviving.old_to_new,
                                                      surviving.topology.num_devices()));
    report.moved_vertices = stats.moved_vertices;
    report.moved_classes = stats.moved_classes;
    report.repartition_seconds = SecondsSince(t0);
  }

  // Phase: replan — swap in the surviving topology and re-run the planning
  // pipeline. The engine holds pointers into the relation/topology, so it is
  // torn down before either is replaced. Engine options referring to dead or
  // renumbered devices are remapped; the injected death is consumed (the
  // retried epoch runs healthy unless the caller re-injects).
  {
    DGCL_TSPAN("recovery", "recovery.replan");
    const auto t0 = std::chrono::steady_clock::now();
    s.engine.reset();

    EngineOptions& eng = s.options.engine;
    eng.faults.dead_device = kInvalidId;
    eng.faults.dead_from_pass = 0;
    if (eng.straggler_device != kInvalidId) {
      eng.straggler_device = eng.straggler_device < surviving.old_to_new.size()
                                 ? surviving.old_to_new[eng.straggler_device]
                                 : kInvalidId;
    }
    std::vector<TransportOverride> kept;
    for (const TransportOverride& o : eng.transport_overrides) {
      if (o.src < surviving.old_to_new.size() && o.dst < surviving.old_to_new.size() &&
          surviving.old_to_new[o.src] != kInvalidId && surviving.old_to_new[o.dst] != kInvalidId) {
        kept.push_back({surviving.old_to_new[o.src], surviving.old_to_new[o.dst], o.transport});
      }
    }
    eng.transport_overrides = std::move(kept);

    std::vector<uint32_t> origin;
    origin.reserve(surviving.new_to_old.size());
    for (uint32_t old_id : surviving.new_to_old) {
      origin.push_back(s.device_origin[old_id]);
    }
    s.device_origin = std::move(origin);

    s.topology = std::move(surviving.topology);
    s.artifacts.partitioning = std::move(repaired);
    DGCL_RETURN_IF_ERROR(PlanAndArm(s, *s.graph));
    // Membership restarts over the compacted id space; the epoch carries.
    s.membership = MembershipService(s.topology.num_devices(), view.epoch);
    report.replan_seconds = SecondsSince(t0);
  }
  return report;
}

Result<RecoveryReport> DgclContext::RecoverFromLastFailure() {
  State& s = *state_;
  if (!s.engine.has_value()) {
    return Status::FailedPrecondition("RecoverFromLastFailure: BuildCommInfo not called");
  }
  std::optional<PassFailure> failure;
  double detect_seconds = 0.0;
  {
    // Phase: detect — classify the failure and read out the suspect set.
    DGCL_TSPAN("recovery", "recovery.detect");
    const auto t0 = std::chrono::steady_clock::now();
    failure = s.engine->last_failure();
    detect_seconds = SecondsSince(t0);
  }
  if (!failure.has_value()) {
    return Status::FailedPrecondition("RecoverFromLastFailure: no recorded pass failure");
  }
  if (!IsRecoverableFailure(failure->status)) {
    return failure->status;
  }
  if (failure->suspects == 0) {
    return Status::FailedPrecondition(
        "RecoverFromLastFailure: failure has no suspect devices (" +
        failure->status.ToString() + ")");
  }
  DGCL_ASSIGN_OR_RETURN(RecoveryReport report, Recover(failure->suspects));
  report.detect_seconds = detect_seconds;
  return report;
}

const MembershipView& DgclContext::membership() const { return state_->membership.view(); }

const std::vector<uint32_t>& DgclContext::device_origin() const { return state_->device_origin; }

Result<std::vector<EmbeddingMatrix>> DgclContext::DispatchFeatures(
    const EmbeddingMatrix& features) const {
  const State& s = *state_;
  if (!s.engine.has_value()) {
    return Status::FailedPrecondition("BuildCommInfo not called");
  }
  const CommRelation& relation = s.artifacts.relation;
  if (features.rows != relation.source.size()) {
    return Status::InvalidArgument("feature rows must match graph vertices");
  }
  std::vector<EmbeddingMatrix> out;
  out.reserve(relation.num_devices);
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    const auto& locals = relation.local_vertices[d];
    EmbeddingMatrix m =
        EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), features.dim);
    for (uint32_t i = 0; i < locals.size(); ++i) {
      std::copy(features.Row(locals[i]), features.Row(locals[i]) + features.dim, m.Row(i));
    }
    out.push_back(std::move(m));
  }
  return out;
}

Result<std::vector<EmbeddingMatrix>> DgclContext::GraphAllgather(
    const std::vector<EmbeddingMatrix>& local) const {
  if (!state_->engine.has_value()) {
    return Status::FailedPrecondition("BuildCommInfo not called");
  }
  return state_->engine->Forward(local);
}

Result<std::vector<EmbeddingMatrix>> DgclContext::GraphAllgatherBackward(
    const std::vector<EmbeddingMatrix>& slot_grads) const {
  if (!state_->engine.has_value()) {
    return Status::FailedPrecondition("BuildCommInfo not called");
  }
  return state_->engine->Backward(slot_grads);
}

Result<LocalGraph> DgclContext::BuildDeviceGraph(uint32_t device) const {
  const State& s = *state_;
  if (s.graph == nullptr) {
    return Status::FailedPrecondition("BuildCommInfo not called");
  }
  if (device >= s.artifacts.relation.num_devices) {
    return Status::OutOfRange("device id out of range");
  }
  return BuildLocalGraph(*s.graph, s.artifacts.relation, device);
}

bool DgclContext::comm_info_ready() const { return state_->engine.has_value(); }
uint32_t DgclContext::num_devices() const { return state_->topology.num_devices(); }
const Topology& DgclContext::topology() const { return state_->topology; }
const DgclOptions& DgclContext::options() const { return state_->options; }

const PlanArtifacts& DgclContext::artifacts() const {
  DGCL_CHECK(comm_info_ready()) << "artifacts() before BuildCommInfo";
  return state_->artifacts;
}

const AllgatherEngine& DgclContext::engine() const {
  DGCL_CHECK(comm_info_ready()) << "engine() before BuildCommInfo";
  return *state_->engine;
}

}  // namespace dgcl
