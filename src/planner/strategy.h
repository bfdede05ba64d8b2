// Planner strategies by name: a fixed table.
//
// Callers pick a communication-planning algorithm with
// PlannerOptions::strategy ("p2p", "spst", "swap", or "auto" for selection
// by simulated time — see sim/planner_select.h) instead of
// instantiating a concrete planner class. DgclContext::BuildCommInfo,
// Recover and tools/dgcl_plan all build strategies through MakePlanner.
// A planner outside this table plugs in through the Planner interface
// directly (examples/custom_strategy.cpp).

#ifndef DGCL_PLANNER_STRATEGY_H_
#define DGCL_PLANNER_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "planner/planner.h"
#include "planner/spst.h"

namespace dgcl {

// The strategy selection block of DgclOptions (and of any front end that
// plans — tools/dgcl_plan takes the same struct). `strategy` names one of
// PlannerNames(), or "auto" to plan with every strategy and commit the one
// whose compiled plan simulates fastest (sim/planner_select.h records the
// per-candidate scores as a SelectionReport).
struct PlannerOptions {
  std::string strategy = "spst";
  SpstOptions spst;  // consumed by the "spst" strategy

  bool IsAuto() const { return strategy == "auto"; }

  // Rejects empty/unknown strategy names with an actionable message that
  // lists the strategies; called by DgclOptions::Validate at Init so a bad
  // config never reaches the planning pipeline.
  Status Validate() const;
};

// The strategy names MakePlanner accepts, ascending: p2p, spst, swap.
// "auto" is not listed — it is a selection mode over these, not a strategy.
std::vector<std::string> PlannerNames();

// Builds the named strategy. An unknown name (including "auto") fails with
// kInvalidArgument listing PlannerNames().
Result<std::unique_ptr<Planner>> MakePlanner(const std::string& name,
                                             const PlannerOptions& options);

}  // namespace dgcl

#endif  // DGCL_PLANNER_STRATEGY_H_
