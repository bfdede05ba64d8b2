// The communication cost model of §5.1.
//
// Communication happens in stages. For a plan S:
//   * each physical hop's time at stage k is (aggregate bytes over the hop at
//     stage k) / hop bandwidth — aggregation across *all* links sharing the
//     hop models contention;
//   * a link's stage time is the max over its hops (pipelined multi-hop);
//   * a stage's time is the max over links (parallel links);
//   * the plan's time is the sum over stages.
//
// Traffic is tracked in *vertex units* (one unit = one vertex embedding);
// bytes_per_unit converts to time. The paper's observation that the optimal
// plan is independent of the feature dimension corresponds to TotalSeconds
// scaling linearly in bytes_per_unit.
//
// AddTransfer/IncrementalCost are O(hops of the link): the "on-demand" cost
// evaluation the paper sketches at the end of §5.2, rather than the O(|V'|
// × |E'|) full matrix of Algorithm 2. IncrementalCost(link, stage, units)
// reads only the stage's bottleneck and the loads of the link's hops at that
// stage, so the SPST search caches it per (stage, link) and recomputes an
// entry only after a commit raised that stage's bottleneck or loaded one of
// the link's hops at that stage.

#ifndef DGCL_PLANNER_COST_MODEL_H_
#define DGCL_PLANNER_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "comm/plan.h"
#include "topology/topology.h"

namespace dgcl {

class CostModel {
 public:
  // `max_stages` bounds the stage index (a spanning tree over |V'| devices
  // has at most |V'| - 1 stages). `bytes_per_unit` is the embedding size in
  // bytes (feature dimension × sizeof(float)).
  CostModel(const Topology& topo, uint32_t max_stages, double bytes_per_unit);

  // Commits `units` vertex embeddings to `link` at `stage`.
  void AddTransfer(LinkId link, uint32_t stage, uint64_t units = 1);

  // Cost increase (seconds) if `units` embeddings were added on `link` at
  // `stage`; does not mutate. Zero when the link's hops stay under the
  // stage's current bottleneck — this is what makes SPST balance loads.
  double IncrementalCost(LinkId link, uint32_t stage, uint64_t units = 1) const;

  double TotalSeconds() const { return total_seconds_; }
  double StageSeconds(uint32_t stage) const { return stage_seconds_[stage]; }
  uint32_t max_stages() const { return max_stages_; }
  double bytes_per_unit() const { return bytes_per_unit_; }

  // Traffic (vertex units) on a connection at a stage.
  uint64_t HopLoad(uint32_t stage, ConnId conn) const { return loads_[stage][conn]; }

  // Seconds a single connection is busy, summed over stages (for the link
  // balance breakdown of Table 7).
  double ConnBusySeconds(ConnId conn) const;

  const Topology& topology() const { return *topo_; }

 private:
  double HopSeconds(uint32_t stage, ConnId conn, uint64_t extra_units) const;

  const Topology* topo_;
  uint32_t max_stages_;
  double bytes_per_unit_;
  std::vector<std::vector<uint64_t>> loads_;  // [stage][conn], vertex units
  std::vector<double> stage_seconds_;         // max over conns per stage
  double total_seconds_ = 0.0;
};

// Replays a class plan's trees (in order) through a fresh cost model and
// returns the resulting t(S). For plans produced by SpstPlanner this is
// bit-identical to the planner's internal accounting (the planner commits
// the same AddTransfer sequence), which the property tests assert.
double ReplayClassPlanCost(const ClassPlan& plan, const Topology& topo, double bytes_per_unit);

// Same replay, but returns the per-stage breakdown (stage_seconds_ of the
// replayed model). Element k is the model's predicted wall time of stage k;
// the CostAudit pass joins this against observed per-stage times (Fig 10).
std::vector<double> ReplayClassPlanStageSeconds(const ClassPlan& plan, const Topology& topo,
                                                double bytes_per_unit);

// Evaluates a whole plan under the cost model: the t(S) of the paper.
double EvaluatePlanCost(const CommPlan& plan, const Topology& topo, double bytes_per_unit);

}  // namespace dgcl

#endif  // DGCL_PLANNER_COST_MODEL_H_
