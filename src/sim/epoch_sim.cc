#include "sim/epoch_sim.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "graph/khop.h"
#include "partition/hierarchical.h"
#include "partition/multilevel.h"
#include "planner/baselines.h"
#include "planner/cost_model.h"
#include "planner/spst.h"
#include "runtime/allgather_engine.h"
#include "sim/swap_model.h"
#include "common/thread_pool.h"
#include "telemetry/trace.h"

namespace dgcl {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kDgcl:
      return "DGCL";
    case Method::kPeerToPeer:
      return "Peer-to-peer";
    case Method::kSwap:
      return "Swap";
    case Method::kReplication:
      return "Replication";
    case Method::kDgclR:
      return "DGCL-R";
    case Method::kDgclCache:
      return "DGCL+cache";
  }
  return "?";
}

namespace {

// Sum of degrees of `vertices` in `graph` — the edges a device touches when
// aggregating for those vertices.
uint64_t IncidentEdges(const CsrGraph& graph, std::span<const VertexId> vertices) {
  uint64_t edges = 0;
  for (VertexId v : vertices) {
    edges += graph.Degree(v);
  }
  return edges;
}

}  // namespace

Result<EpochSimulator> EpochSimulator::Create(const Dataset& dataset, const Topology& topo,
                                              EpochOptions options) {
  if (topo.num_devices() == 0) {
    return Status::InvalidArgument("empty topology");
  }
  if (options.num_layers == 0) {
    return Status::InvalidArgument("num_layers must be positive");
  }
  EpochSimulator sim;
  sim.dataset_ = &dataset;
  sim.topo_ = &topo;
  options.memory.inverse_scale = 1;  // we scale footprints up instead
  sim.options_ = options;
  MultilevelPartitioner partitioner;
  DGCL_ASSIGN_OR_RETURN(sim.partitioning_,
                        PartitionForTopology(dataset.graph, topo, partitioner));
  DGCL_ASSIGN_OR_RETURN(sim.relation_, BuildCommRelation(dataset.graph, sim.partitioning_));
  return sim;
}

double EpochSimulator::DeviceComputeSeconds(uint64_t vertices, uint64_t edges) const {
  const uint64_t scale = options_.inverse_scale;
  return EpochComputeSeconds(options_.gnn, vertices * scale, edges * scale,
                             dataset_->feature_dim, dataset_->hidden_dim, options_.num_layers,
                             options_.compute);
}

double EpochSimulator::MaxComputeSeconds() const {
  double max_seconds = 0.0;
  for (uint32_t d = 0; d < relation_.num_devices; ++d) {
    const auto& local = relation_.local_vertices[d];
    max_seconds = std::max(
        max_seconds, DeviceComputeSeconds(local.size(), IncidentEdges(dataset_->graph, local)));
  }
  return max_seconds;
}

Status EpochSimulator::CheckMemory(uint64_t stored_vertices, uint64_t stored_edges) const {
  const uint64_t scale = options_.inverse_scale;
  const double footprint =
      TrainingFootprintBytes(stored_vertices * scale, stored_edges * scale,
                             dataset_->feature_dim, dataset_->hidden_dim, options_.num_layers);
  if (WouldOom(footprint, options_.memory)) {
    return Status::ResourceExhausted("device footprint " + std::to_string(footprint / 1e9) +
                                     " GB exceeds capacity");
  }
  return Status::Ok();
}

Result<double> EpochSimulator::SimulateAllgatherSeconds(Planner& planner, uint32_t dim,
                                                        double volume_fraction,
                                                        double* estimated_seconds,
                                                        NetworkSimResult* net_result,
                                                        PassDirection direction,
                                                        bool non_atomic) const {
  const double bytes_per_unit =
      static_cast<double>(dim) * 4.0 * options_.inverse_scale * volume_fraction;
  DGCL_ASSIGN_OR_RETURN(CommPlan plan, planner.Plan(relation_, *topo_, bytes_per_unit));
  CompiledPlan compiled = CompilePlan(plan, *topo_);
  if (direction == PassDirection::kBackward) {
    AssignBackwardSubstages(compiled);
  }
  NetworkSimOptions net = options_.net;
  net.bytes_per_unit = bytes_per_unit;
  net.non_atomic = non_atomic;
  NetworkSimResult result = SimulateTransfer(compiled, *topo_, net, direction);
  if (estimated_seconds != nullptr) {
    *estimated_seconds = EvaluatePlanCost(plan, *topo_, bytes_per_unit);
  }
  if (net_result != nullptr) {
    *net_result = result;
  }
  return result.total_seconds;
}

Result<telemetry::CostAuditReport> EpochSimulator::AuditAllgather(uint32_t dim) const {
  const double bytes_per_unit = static_cast<double>(dim) * 4.0 * options_.inverse_scale;
  CommClasses classes = BuildCommClasses(relation_);
  SpstPlanner planner;
  DGCL_ASSIGN_OR_RETURN(ClassPlan class_plan,
                        planner.PlanClasses(classes, *topo_, bytes_per_unit));
  const std::vector<double> predicted =
      ReplayClassPlanStageSeconds(class_plan, *topo_, bytes_per_unit);
  CompiledPlan compiled = CompilePlan(class_plan, classes, *topo_);
  NetworkSimOptions net = options_.net;
  net.bytes_per_unit = bytes_per_unit;
  const NetworkSimResult result = SimulateTransfer(compiled, *topo_, net);
  return telemetry::AuditStageCosts(predicted, result.stage_seconds);
}

Result<telemetry::CostAuditReport> EpochSimulator::AuditAllgatherFromEngine(
    uint32_t dim, double time_scale) const {
  // No inverse_scale here: the engine moves the actual bytes of a dim-wide
  // embedding, so the prediction must price exactly those bytes.
  const double bytes_per_unit = static_cast<double>(dim) * 4.0;
  CommClasses classes = BuildCommClasses(relation_);
  SpstPlanner planner;
  DGCL_ASSIGN_OR_RETURN(ClassPlan class_plan,
                        planner.PlanClasses(classes, *topo_, bytes_per_unit));
  const std::vector<double> predicted =
      ReplayClassPlanStageSeconds(class_plan, *topo_, bytes_per_unit);
  CompiledPlan compiled = CompilePlan(class_plan, classes, *topo_);
  AssignBackwardSubstages(compiled);

  EngineOptions engine_options;
  engine_options.transport.emulate_bandwidth = true;
  engine_options.transport.bandwidth_time_scale = time_scale;
  DGCL_ASSIGN_OR_RETURN(AllgatherEngine engine,
                        AllgatherEngine::Create(relation_, std::move(compiled), *topo_,
                                                engine_options));

  std::vector<EmbeddingMatrix> local;
  local.reserve(relation_.num_devices);
  for (uint32_t d = 0; d < relation_.num_devices; ++d) {
    local.push_back(EmbeddingMatrix::Zero(
        static_cast<uint32_t>(relation_.local_vertices[d].size()), dim));
  }

  telemetry::Telemetry& telemetry = telemetry::Telemetry::Get();
  const bool was_enabled = telemetry::Telemetry::Enabled();
  if (!was_enabled) {
    telemetry.SetEnabled(true);
  }
  const uint64_t pass_start_ns = telemetry::Telemetry::NowNs();
  Result<std::vector<EmbeddingMatrix>> out = engine.Forward(local);
  telemetry::Trace trace = telemetry.Collect();
  if (!was_enabled) {
    telemetry.SetEnabled(false);
  }
  DGCL_RETURN_IF_ERROR(out.status());

  // Only this pass's stage spans: earlier passes (or the caller's own
  // instrumented work) may share the recorders.
  telemetry::Trace pass_trace;
  for (telemetry::TraceEvent& ev : trace.events) {
    if (ev.start_ns >= pass_start_ns && ev.name == "fwd.stage") {
      pass_trace.events.push_back(std::move(ev));
    }
  }
  std::vector<double> observed =
      telemetry::ObservedStageSecondsFromTrace(pass_trace, "fwd.stage");
  for (double& seconds : observed) {
    seconds /= time_scale;
  }
  return telemetry::AuditStageCosts(predicted, observed);
}

Result<EpochReport> EpochSimulator::SimulatePlanned(Method method) const {
  DGCL_TSPAN1("sim", "epoch.planned", "method", static_cast<uint64_t>(method));
  SpstPlanner spst;
  PeerToPeerPlanner p2p;
  Planner& planner = method == Method::kPeerToPeer ? static_cast<Planner&>(p2p)
                                                   : static_cast<Planner&>(spst);
  const bool cache_features = method == Method::kDgclCache;
  EpochReport report;

  // Memory: each device stores its locals plus received remotes. The feature
  // cache pins the remotes' input features permanently — same stored-vertex
  // count, the footprint model already charges features for every stored
  // vertex, so only the layer count matters here.
  for (uint32_t d = 0; d < relation_.num_devices; ++d) {
    const uint64_t stored =
        relation_.local_vertices[d].size() + relation_.remote_vertices[d].size();
    const uint64_t edges = IncidentEdges(dataset_->graph, relation_.local_vertices[d]);
    if (Status s = CheckMemory(stored, edges); !s.ok()) {
      report.oom = true;
      report.oom_detail = s.message();
      return report;
    }
  }

  // Plan once at the feature dimension; the same plan serves every layer
  // (§5.1: the optimal plan is feature-dimension independent).
  const double feature_bytes =
      static_cast<double>(dataset_->feature_dim) * 4.0 * options_.inverse_scale;
  WallTimer plan_timer;
  DGCL_ASSIGN_OR_RETURN(CommPlan plan, planner.Plan(relation_, *topo_, feature_bytes));
  report.plan_wall_seconds = plan_timer.ElapsedSeconds();
  CompiledPlan forward_plan = CompilePlan(plan, *topo_);
  report.plan_table_bytes = forward_plan.TableBytes();
  CompiledPlan backward_plan = forward_plan;
  AssignBackwardSubstages(backward_plan);

  auto transfer_seconds = [&](uint32_t dim, PassDirection direction) {
    NetworkSimOptions net = options_.net;
    net.bytes_per_unit = static_cast<double>(dim) * 4.0 * options_.inverse_scale;
    const CompiledPlan& cp =
        direction == PassDirection::kForward ? forward_plan : backward_plan;
    return SimulateTransfer(cp, *topo_, net, direction).total_seconds;
  };

  const uint32_t hidden = dataset_->hidden_dim;
  const double feature_pass = transfer_seconds(dataset_->feature_dim, PassDirection::kForward);
  report.simulated_allgather_ms = feature_pass * 1e3;
  report.estimated_allgather_ms = EvaluatePlanCost(plan, *topo_, feature_bytes) * 1e3;
  // With the feature cache, layer 1 reads remote inputs locally and skips
  // the feature-width allgather.
  double comm_seconds = cache_features ? 0.0 : feature_pass;
  for (uint32_t layer = 1; layer < options_.num_layers; ++layer) {
    comm_seconds += transfer_seconds(hidden, PassDirection::kForward);
    comm_seconds += transfer_seconds(hidden, PassDirection::kBackward);
  }
  report.comm_ms = comm_seconds * 1e3;
  report.compute_ms = MaxComputeSeconds() * 1e3;

  const uint64_t hidden_dims = 2ull * (options_.num_layers - 1) * hidden;
  const uint64_t epoch_dims = (cache_features ? 0 : dataset_->feature_dim) + hidden_dims;
  report.avg_comm_bytes_per_gpu = relation_.TotalTransfers() * epoch_dims * 4ull *
                                  options_.inverse_scale / relation_.num_devices;
  return report;
}

Result<EpochReport> EpochSimulator::SimulateSwap() const {
  EpochReport report;
  for (uint32_t d = 0; d < relation_.num_devices; ++d) {
    const uint64_t stored =
        relation_.local_vertices[d].size() + relation_.remote_vertices[d].size();
    const uint64_t edges = IncidentEdges(dataset_->graph, relation_.local_vertices[d]);
    if (Status s = CheckMemory(stored, edges); !s.ok()) {
      report.oom = true;
      report.oom_detail = s.message();
      return report;
    }
  }
  auto exchange_seconds = [&](uint32_t dim) -> Result<double> {
    SwapOptions swap;
    swap.bytes_per_unit = static_cast<double>(dim) * 4.0 * options_.inverse_scale;
    return SwapExchangeSeconds(relation_, *topo_, swap);
  };
  DGCL_ASSIGN_OR_RETURN(double feature_exchange, exchange_seconds(dataset_->feature_dim));
  DGCL_ASSIGN_OR_RETURN(double hidden_exchange, exchange_seconds(dataset_->hidden_dim));
  const double comm_seconds =
      feature_exchange + 2.0 * (options_.num_layers - 1) * hidden_exchange;
  report.comm_ms = comm_seconds * 1e3;
  report.simulated_allgather_ms = feature_exchange * 1e3;
  report.compute_ms = MaxComputeSeconds() * 1e3;
  return report;
}

Result<EpochReport> EpochSimulator::SimulateReplication() const {
  EpochReport report;
  const CsrGraph& graph = dataset_->graph;
  const uint32_t layers = options_.num_layers;
  uint64_t total_stored = 0;
  double max_compute = 0.0;
  for (uint32_t d = 0; d < relation_.num_devices; ++d) {
    const auto& local = relation_.local_vertices[d];
    // set_k = vertices within k hops of the locals.
    std::vector<std::vector<VertexId>> sets;
    sets.push_back(local);
    for (uint32_t k = 1; k <= layers; ++k) {
      sets.push_back(ExpandKHop(graph, local, k));
    }
    total_stored += sets[layers].size();
    // Layer l (1-based) computes embeddings for every vertex within
    // (layers - l) hops: deeper layers need fewer replicas.
    double device_seconds = 0.0;
    for (uint32_t l = 1; l <= layers; ++l) {
      const auto& set = sets[layers - l];
      const uint32_t dim_in = l == 1 ? dataset_->feature_dim : dataset_->hidden_dim;
      const uint64_t scale = options_.inverse_scale;
      device_seconds += LayerForwardSeconds(options_.gnn, set.size() * scale,
                                            IncidentEdges(graph, set) * scale, dim_in,
                                            dataset_->hidden_dim, options_.compute);
    }
    device_seconds *= 1.0 + options_.compute.backward_factor;
    max_compute = std::max(max_compute, device_seconds);

    const uint64_t stored_edges = IncidentEdges(graph, sets[layers - 1]);
    if (Status s = CheckMemory(sets[layers].size(), stored_edges); !s.ok()) {
      report.oom = true;
      report.oom_detail = s.message();
      report.replication_factor =
          graph.num_vertices() == 0
              ? 0.0
              : static_cast<double>(total_stored) / graph.num_vertices();
      return report;
    }
  }
  report.comm_ms = 0.0;
  report.compute_ms = max_compute * 1e3;
  report.replication_factor =
      graph.num_vertices() == 0 ? 0.0
                                : static_cast<double>(total_stored) / graph.num_vertices();
  return report;
}

Result<EpochReport> EpochSimulator::SimulateDgclR() const {
  auto machine_groups = GroupDevicesByMachine(*topo_);
  if (machine_groups.size() <= 1) {
    return SimulatePlanned(Method::kDgcl);
  }
  if (options_.machine_topology == nullptr) {
    return Status::InvalidArgument("kDgclR on a multi-machine cluster needs machine_topology");
  }
  const Topology& machine_topo = *options_.machine_topology;
  if (machine_topo.num_devices() != machine_groups.front().size()) {
    return Status::InvalidArgument("machine_topology device count mismatch");
  }

  const CsrGraph& graph = dataset_->graph;
  const uint32_t layers = options_.num_layers;
  EpochReport report;

  // The machines are planned and simulated independently — fan them out on
  // the shared pool with one result slot per machine, then fold the slots in
  // machine order (so the first OOM reported matches the serial walk).
  struct MachineResult {
    Status status = Status::Ok();
    std::string oom_detail;  // non-empty = this machine OOMs
    uint64_t stored = 0;
    double comm_seconds = 0.0;
    double compute_seconds = 0.0;
  };
  std::vector<MachineResult> results(machine_groups.size());
  ThreadPool::Shared().ParallelFor(machine_groups.size(), [&](uint64_t g) {
    DGCL_TSPAN1("sim", "dgclr.machine", "machine", g);
    const auto& group = machine_groups[g];
    MachineResult& res = results[g];
    // The machine's vertices: everything its devices own.
    std::vector<VertexId> machine_vertices;
    for (uint32_t d : group) {
      const auto& local = relation_.local_vertices[d];
      machine_vertices.insert(machine_vertices.end(), local.begin(), local.end());
    }
    std::sort(machine_vertices.begin(), machine_vertices.end());
    // Replicate the K-hop closure so no cross-machine traffic is needed.
    std::vector<VertexId> expanded = ExpandKHop(graph, machine_vertices, layers);
    res.stored = expanded.size();
    CsrGraph sub = graph.InducedSubgraph(expanded);

    // Non-overlapping partitioning of the expanded set across this
    // machine's GPUs, then DGCL planning on the machine topology.
    MultilevelPartitioner partitioner;
    Result<Partitioning> local_parts = partitioner.Partition(sub, machine_topo.num_devices());
    if (!local_parts.ok()) {
      res.status = local_parts.status();
      return;
    }
    Result<CommRelation> local_rel = BuildCommRelation(sub, *local_parts);
    if (!local_rel.ok()) {
      res.status = local_rel.status();
      return;
    }

    for (uint32_t d = 0; d < local_rel->num_devices; ++d) {
      const auto& local = local_rel->local_vertices[d];
      res.compute_seconds = std::max(
          res.compute_seconds, DeviceComputeSeconds(local.size(), IncidentEdges(sub, local)));
      const uint64_t stored = local.size() + local_rel->remote_vertices[d].size();
      if (Status s = CheckMemory(stored, IncidentEdges(sub, local)); !s.ok()) {
        res.oom_detail = s.message();
        return;
      }
    }

    SpstPlanner spst;
    const double feature_bytes =
        static_cast<double>(dataset_->feature_dim) * 4.0 * options_.inverse_scale;
    Result<CommPlan> plan = spst.Plan(*local_rel, machine_topo, feature_bytes);
    if (!plan.ok()) {
      res.status = plan.status();
      return;
    }
    CompiledPlan forward_plan = CompilePlan(*plan, machine_topo);
    CompiledPlan backward_plan = forward_plan;
    AssignBackwardSubstages(backward_plan);
    auto transfer_seconds = [&](uint32_t dim, PassDirection direction) {
      NetworkSimOptions net = options_.net;
      net.bytes_per_unit = static_cast<double>(dim) * 4.0 * options_.inverse_scale;
      const CompiledPlan& cp =
          direction == PassDirection::kForward ? forward_plan : backward_plan;
      return SimulateTransfer(cp, machine_topo, net, direction).total_seconds;
    };
    res.comm_seconds = transfer_seconds(dataset_->feature_dim, PassDirection::kForward);
    for (uint32_t layer = 1; layer < layers; ++layer) {
      res.comm_seconds += transfer_seconds(dataset_->hidden_dim, PassDirection::kForward);
      res.comm_seconds += transfer_seconds(dataset_->hidden_dim, PassDirection::kBackward);
    }
  });

  uint64_t total_stored = 0;
  double max_comm = 0.0;
  double max_compute = 0.0;
  for (const MachineResult& res : results) {
    DGCL_RETURN_IF_ERROR(res.status);
    total_stored += res.stored;
    max_compute = std::max(max_compute, res.compute_seconds);
    if (!res.oom_detail.empty()) {
      report.oom = true;
      report.oom_detail = res.oom_detail;
      return report;
    }
    max_comm = std::max(max_comm, res.comm_seconds);
  }

  report.comm_ms = max_comm * 1e3;
  report.compute_ms = max_compute * 1e3;
  report.replication_factor =
      graph.num_vertices() == 0 ? 1.0
                                : static_cast<double>(total_stored) / graph.num_vertices();
  return report;
}

Result<EpochReport> EpochSimulator::Simulate(Method method) const {
  DGCL_TSPAN1("sim", "epoch.simulate", "method", static_cast<uint64_t>(method));
  switch (method) {
    case Method::kDgcl:
    case Method::kPeerToPeer:
    case Method::kDgclCache:
      return SimulatePlanned(method);
    case Method::kSwap:
      return SimulateSwap();
    case Method::kReplication:
      return SimulateReplication();
    case Method::kDgclR:
      return SimulateDgclR();
  }
  return Status::InvalidArgument("unknown method");
}

}  // namespace dgcl
