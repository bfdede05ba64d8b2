// Shortest Path Spanning Tree planner — the paper's core contribution (§5.2),
// batched over destination-set equivalence classes.
//
// Each work item's tree is grown from its source device one destination at a
// time: a shortest-path search over the (device, depth) layered graph runs
// from the devices already in the tree to the uncovered destinations, using
// the *incremental* cost-model blow-up as edge weights (an edge used at tree
// depth k is charged at stage k), and the cheapest path is committed.
// Committed traffic updates the shared cost model, so later work items see
// the load created by earlier ones — this is what yields load balancing,
// fast-link preference, communication fusion and contention avoidance
// simultaneously.
//
// The layered graph only has edges one depth deeper, so the search relaxes it
// depth by depth with no heap, in scratch memory allocated once per
// PlanClasses call, and reads edge weights from a per-call [stage][link]
// cache that a commit invalidates only where it changed the cost model. It
// returns exactly the path a Dijkstra search would: the target of least
// (distance, node id) key, and among equally short parents the one Dijkstra
// pops first (spst.cc states the rules).
//
// The work items are class *chunks* (bounded at max_class_units vertices)
// rather than vertices: every vertex of a (source, dest_mask) equivalence
// class has the same feasible trees, so each chunk's tree is grown once and
// its weight is committed to the cost model in one weighted AddTransfer. In
// the max_class_units = 0 limit the expanded per-vertex plan is the seed
// per-vertex algorithm's.

#ifndef DGCL_PLANNER_SPST_H_
#define DGCL_PLANNER_SPST_H_

#include "planner/cost_model.h"
#include "planner/planner.h"

namespace dgcl {

// Per-edge tie-break cost of the path search, as a fraction of the time one
// embedding takes on the fastest connection (so plans stay invariant under
// feature-dimension scaling, §5.1 corollary), charged once per unit routed.
// It makes zero-blow-up paths prefer fewer hops and keeps every edge weight
// above zero and far above the rounding error of any path distance, which
// the search relies on to reproduce Dijkstra's pop order.
inline constexpr double kHopEpsilonFraction = 1e-6;

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
