// Baseline communication planners: the paper's link-level baselines.
//
//  * PeerToPeerPlanner ("p2p") — each vertex goes directly from its source to
//    every destination over the direct link, all in one stage (the scheme of
//    Lux/ROC that §3 profiles).
//  * SwapPlanner ("swap") — the link-level analogue of NeuGraph's swap
//    scheme: every transfer is staged through the source socket's hub device
//    (its lowest GPU id, standing in for the PCIe-root/host staging buffer)
//    and fanned out from there, so all of a partition's traffic funnels
//    through one staging point. Swap's *memory* behaviour is modeled in
//    src/sim/swap_model.h; this planner gives the strategy table a
//    link-level strategy with the same funnel shape for cost-model
//    comparisons.
//
// Both are oblivious to load, so they plan one tree per equivalence class
// with no chunking; the expanded per-vertex trees are identical to what
// per-vertex planning produced. The paper's third baseline, Replication, is
// not a link-level planner (it restructures the computation instead); it is
// modeled in src/sim/.

#ifndef DGCL_PLANNER_BASELINES_H_
#define DGCL_PLANNER_BASELINES_H_

#include "planner/planner.h"

namespace dgcl {

class PeerToPeerPlanner final : public Planner {
 public:
  Result<ClassPlan> PlanClasses(const CommClasses& classes, const Topology& topo,
                                double bytes_per_unit) override;
  std::string name() const override { return "p2p"; }
};

class SwapPlanner final : public Planner {
 public:
  Result<ClassPlan> PlanClasses(const CommClasses& classes, const Topology& topo,
                                double bytes_per_unit) override;
  std::string name() const override { return "swap"; }
};

}  // namespace dgcl

#endif  // DGCL_PLANNER_BASELINES_H_
