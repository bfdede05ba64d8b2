// End-to-end per-epoch simulation for the paper's evaluation (§7).
//
// Combines graph partitioning, communication planning, the network simulator
// and the compute/memory models to produce per-epoch and communication times
// for each training method:
//
//   kDgcl        — SPST-planned embedding passing (the paper's system)
//   kPeerToPeer  — direct-link transfers (ROC/Lux style)
//   kSwap        — staging through CPU memory (NeuGraph style)
//   kReplication — K-hop replication, zero communication, extra compute/memory
//   kDgclR       — replication across machines + DGCL within each machine
//
// All reported numbers are *full-size equivalents*: the stand-in graphs are
// scale-reduced by `inverse_scale`, so volumes and compute work are scaled
// back up by the same factor before timing (per-op latencies are not scaled).

#ifndef DGCL_SIM_EPOCH_SIM_H_
#define DGCL_SIM_EPOCH_SIM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "comm/compiled_plan.h"
#include "comm/relation.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "planner/planner.h"
#include "sim/compute_model.h"
#include "sim/memory_model.h"
#include "sim/network_sim.h"
#include "telemetry/cost_audit.h"
#include "topology/topology.h"

namespace dgcl {

//   kDgclCache   — DGCL plus the §3 option (1): the layer-0 features of the
//                  remote neighbors are cached on each device, eliminating
//                  the first (widest) allgather at extra memory cost.
enum class Method : uint8_t { kDgcl, kPeerToPeer, kSwap, kReplication, kDgclR, kDgclCache };

const char* MethodName(Method method);

struct EpochOptions {
  GnnModel gnn = GnnModel::kGcn;
  uint32_t num_layers = 2;
  uint32_t inverse_scale = 1;
  ComputeModelParams compute;
  MemoryModelParams memory;  // capacity checked against full-size footprints
  NetworkSimOptions net;     // bytes_per_unit is overridden per layer
  // Per-machine topology for kDgclR planning on multi-machine clusters
  // (e.g. the 8-GPU preset when the cluster is 2x8). Ignored otherwise.
  const Topology* machine_topology = nullptr;
};

struct EpochReport {
  bool oom = false;
  std::string oom_detail;
  double comm_ms = 0.0;
  double compute_ms = 0.0;
  double replication_factor = 1.0;
  // SPST/P2P only: planner cost-model estimate of one forward allgather at
  // the feature dimension, and its simulated time (Figure 10's two axes).
  double estimated_allgather_ms = 0.0;
  double simulated_allgather_ms = 0.0;
  uint64_t plan_table_bytes = 0;  // send/recv table footprint (Figure 11)
  double plan_wall_seconds = 0.0; // planning time (Table 8)
  uint64_t avg_comm_bytes_per_gpu = 0;  // full-size equivalent (Figure 2)

  double EpochMs() const { return comm_ms + compute_ms; }
};

// Caches the partitioning and communication relation for one
// (dataset, topology) pair so method comparisons reuse identical inputs.
class EpochSimulator {
 public:
  // Partitions with the multilevel (METIS-substitute) partitioner,
  // hierarchically when `topo` spans machines. Fails on invalid inputs.
  static Result<EpochSimulator> Create(const Dataset& dataset, const Topology& topo,
                                       EpochOptions options);

  Result<EpochReport> Simulate(Method method) const;

  // One forward graphAllgather (embedding dimension `dim`) under `planner`,
  // reporting simulated seconds; also fills cost-model estimate and the
  // compiled plan's table bytes when the out-params are non-null.
  // `volume_fraction` scales every transfer's size (Figure 10 sweeps it).
  Result<double> SimulateAllgatherSeconds(Planner& planner, uint32_t dim,
                                          double volume_fraction = 1.0,
                                          double* estimated_seconds = nullptr,
                                          NetworkSimResult* net_result = nullptr,
                                          PassDirection direction = PassDirection::kForward,
                                          bool non_atomic = true) const;

  // Fig-10-style per-stage accuracy audit of the SPST cost model: plans one
  // forward allgather at embedding dimension `dim`, prices every stage with
  // the cost model (ReplayClassPlanStageSeconds) and joins that against the
  // network simulator's per-stage times.
  Result<telemetry::CostAuditReport> AuditAllgather(uint32_t dim) const;

  // Wall-clock calibration audit: plans one forward allgather at `dim`, then
  // actually RUNS it on the threaded engine with bandwidth emulation
  // (TransportPolicy::emulate_bandwidth: every transmit waits
  // bytes / bottleneck_bandwidth * time_scale of wall time), records a
  // telemetry trace of the pass and joins the cost model's per-stage
  // predictions against the observed per-stage wall times — the max
  // "fwd.stage" span per stage (CostAudit::ObservedStageSecondsFromTrace),
  // divided back by `time_scale`. This audits the cost model against a real
  // engine trace, waits and coordination included, not against the network
  // simulator. `time_scale` > 1 stretches emulated time above scheduler
  // noise (µs-scale transfers are hard to time faithfully). Telemetry is
  // enabled for the duration of the call if it was off.
  Result<telemetry::CostAuditReport> AuditAllgatherFromEngine(uint32_t dim,
                                                              double time_scale = 1.0) const;

  const CommRelation& relation() const { return relation_; }
  const Partitioning& partitioning() const { return partitioning_; }
  const Dataset& dataset() const { return *dataset_; }
  const Topology& topology() const { return *topo_; }
  const EpochOptions& options() const { return options_; }

 private:
  EpochSimulator() = default;

  Result<EpochReport> SimulatePlanned(Method method) const;  // kDgcl / kPeerToPeer
  Result<EpochReport> SimulateSwap() const;
  Result<EpochReport> SimulateReplication() const;
  Result<EpochReport> SimulateDgclR() const;

  // Full-size-equivalent compute seconds for a device with the given counts.
  double DeviceComputeSeconds(uint64_t vertices, uint64_t edges) const;
  // Max compute seconds across devices for non-replicated methods.
  double MaxComputeSeconds() const;
  Status CheckMemory(uint64_t stored_vertices, uint64_t stored_edges) const;

  const Dataset* dataset_ = nullptr;
  const Topology* topo_ = nullptr;
  EpochOptions options_;
  Partitioning partitioning_;
  CommRelation relation_;
};

}  // namespace dgcl

#endif  // DGCL_SIM_EPOCH_SIM_H_
