// Shortest Path Spanning Tree planner — the paper's core contribution (§5.2),
// batched over destination-set equivalence classes.
//
// The seed algorithm processed one vertex at a time (in shuffled order),
// growing a communication tree rooted at the source device: every iteration
// runs a multi-source shortest-path search from the devices already in the
// tree to the uncovered destinations, using the *incremental* cost model
// blow-up as edge weights (an edge used at tree depth k is charged at stage
// k), then commits the cheapest path. Committed traffic updates the shared
// cost model, so later work items see the load created by earlier ones —
// this is what yields load balancing, fast-link preference, communication
// fusion and contention avoidance simultaneously.
//
// Batched planning exploits that every vertex of a (source, dest_mask)
// equivalence class has the same feasible trees: the work items are class
// *chunks* (bounded at max_class_units vertices) rather than vertices, each
// chunk's tree is grown once, and the chunk's weight is committed to the
// cost model in one weighted AddTransfer. Planning time drops from
// O(|V| · dijkstra) to O(#chunks · dijkstra) while the expanded per-vertex
// plan stays structurally identical in the max_class_units = 0 limit.

#ifndef DGCL_PLANNER_SPST_H_
#define DGCL_PLANNER_SPST_H_

#include "planner/cost_model.h"
#include "planner/planner.h"

namespace dgcl {

struct SpstOptions {
  // Shuffle the work-item processing order (Algorithm 1 preamble). Turning
  // this off (ablation) processes items in deterministic class order, which
  // correlates the processing order with graph locality and hurts balance.
  bool shuffle = true;
  uint64_t shuffle_seed = 1;

  // Cap on tree depth (== stage count). The paper allows |V'| - 1; deep
  // relays are never profitable on real topologies and a small cap speeds
  // planning. 0 means no cap.
  uint32_t max_tree_depth = 4;

  // Tiny per-edge cost added during path search so zero-blow-up paths still
  // prefer fewer hops (tie-breaking; keeps paths loop-free). Expressed as a
  // fraction of the time one embedding takes on the fastest connection, so
  // plans stay invariant under feature-dimension scaling (§5.1 corollary).
  double hop_epsilon_fraction = 1e-6;

  // Upper bound on the vertex units a single class tree may carry. Classes
  // larger than this are split into evenly sized chunks so skewed classes
  // still spread across parallel routes (the load-balancing behaviour of
  // per-vertex planning). 0 = one chunk per vertex, which reproduces the
  // seed per-vertex algorithm exactly (the ablation baseline).
  uint32_t max_class_units = 256;

  // Adaptive floor on work-list length: the effective chunk bound is
  // clamp(total_weight / min_chunks, 1, max_class_units), so small
  // workloads degrade gracefully toward per-vertex granularity instead of
  // quantizing all their traffic into a handful of coarse commits. Set to 0
  // to disable (use max_class_units verbatim, e.g. in chunk-size ablations).
  uint32_t min_chunks = 2048;
};

class SpstPlanner final : public Planner {
 public:
  explicit SpstPlanner(SpstOptions options = {}) : options_(options) {}

  Result<ClassPlan> PlanClasses(const CommClasses& classes, const Topology& topo,
                                double bytes_per_unit) override;
  std::string name() const override { return "spst"; }

 private:
  SpstOptions options_;
};

}  // namespace dgcl

#endif  // DGCL_PLANNER_SPST_H_
