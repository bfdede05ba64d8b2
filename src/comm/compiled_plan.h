// Plan compilation: class or per-vertex trees -> executable transfer tuples
// (§6.1).
//
// The runtime consumes (d_i, d_j, stage, send/recv table) tuples: all vertex
// embeddings crossing the same link in the same stage are batched into one
// transfer. In the backward pass stages run in reverse with the tables
// swapped (gradients flow opposite to embeddings); sub-stage splitting makes
// gradient aggregation conflict-free (non-atomic, §6.2).

#ifndef DGCL_COMM_COMPILED_PLAN_H_
#define DGCL_COMM_COMPILED_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "comm/plan.h"
#include "comm/relation.h"
#include "topology/topology.h"

namespace dgcl {

// One batched transfer: `vertices` holds global vertex ids whose embeddings
// cross `link` at `stage` (the send table; the receive table is identical by
// construction — both sides index the same global ids).
struct TransferOp {
  LinkId link = kInvalidId;
  DeviceId src = 0;
  DeviceId dst = 0;
  uint32_t stage = 0;
  uint32_t substage = 0;  // backward-pass sub-stage (0 when unsplit)
  std::vector<VertexId> vertices;
};

struct CompiledPlan {
  uint32_t num_devices = 0;
  uint32_t num_stages = 0;
  std::vector<TransferOp> ops;  // sorted by (stage, link)

  // Provenance: name of the strategy whose ClassPlan compiled into this
  // (empty for per-vertex CommPlan compilation or legacy plan files).
  std::string planner_name;

  // Indices into `ops` per device, for runtime scheduling.
  std::vector<std::vector<uint32_t>> ops_by_src;  // per device
  std::vector<std::vector<uint32_t>> ops_by_dst;  // per device

  // Bytes needed to store all send/receive tables (vertex ids, both sides) —
  // the decentralized-coordination memory overhead of Figure 11.
  uint64_t TableBytes() const;

  // Maximum backward sub-stage count across (device, stage) groups.
  uint32_t MaxSubstages() const;
};

// Groups the plan's per-vertex tree edges into batched transfer ops.
CompiledPlan CompilePlan(const CommPlan& plan, const Topology& topo);

// Same, but straight from a class plan: each class tree's edges contribute
// the chunk's vertex ids to the (stage, link) group. Produces byte-identical
// tables to CompilePlan(ExpandClassPlan(plan, classes), topo) without
// materializing the per-vertex trees.
CompiledPlan CompilePlan(const ClassPlan& plan, const CommClasses& classes,
                         const Topology& topo);

// Assigns backward sub-stages (§6.2): within each (receiving device, stage)
// group, two ops that both carry a given vertex must land in different
// sub-stages so its gradient is never written by two peers concurrently.
// In-place; preserves op order.
void AssignBackwardSubstages(CompiledPlan& plan);

// Checks execution causality and delivery of a compiled plan:
//  * a device only sends a vertex at stage k if it owns it or received it in
//    an earlier stage;
//  * no vertex reaches a device that already holds it (its owner, or a
//    device it reached before, in this stage or an earlier one);
//  * after all stages every device holds all its required remote vertices.
// AllgatherEngine::Create runs this on every plan it arms, including plans
// loaded from files.
// Returns per-device count of extra (forwarded but not needed) vertices via
// `forwarded_extras` when non-null.
Status ValidateCompiledPlan(const CompiledPlan& plan, const CommRelation& relation,
                            const Topology& topo,
                            std::vector<uint64_t>* forwarded_extras = nullptr);

}  // namespace dgcl

#endif  // DGCL_COMM_COMPILED_PLAN_H_
