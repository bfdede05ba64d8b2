// Cost-model-driven strategy auto-selection ("auto" in PlannerOptions).
//
// Planning is cheap next to training, so "auto" simply plans the workload
// with every strategy, prices each candidate, and commits the winner.
// Selection is by the planner cost model (ClassPlan::planned_cost_seconds —
// the same t(S) objective SPST optimizes, so the comparison is
// apples-to-apples). Only auto simulates: it also compiles each candidate
// and records its discrete-event NetworkSim time alongside the cost, both
// in the returned SelectionReport and as telemetry counters ("planner"
// category, "auto.<strategy>.cost_us" / "auto.<strategy>.sim_us") so
// dgcl_trace can surface why a strategy won after the fact. A forced
// strategy is planned and nothing else.
//
// Lives in sim/ (not planner/) because scoring needs NetworkSim; the planner
// layer stays below the simulator in the dependency order.

#ifndef DGCL_SIM_PLANNER_SELECT_H_
#define DGCL_SIM_PLANNER_SELECT_H_

#include <string>
#include <vector>

#include "comm/plan.h"
#include "planner/strategy.h"
#include "sim/network_sim.h"

namespace dgcl {

// One strategy's scores from an auto-selection round (or the single entry of
// a forced-strategy round).
struct PlannerCandidateScore {
  std::string strategy;
  bool planned = false;  // false: the strategy cannot plan this workload
  std::string error;     // planner failure message when !planned
  double planned_cost_seconds = 0.0;  // cost model t(S) — the ranking key
  double simulated_seconds = 0.0;     // NetworkSim forward-pass time (auto only)
  uint32_t num_stages = 0;
  uint64_t total_traffic = 0;  // (vertex, link-hop) traversals
  bool selected = false;
};

struct SelectionReport {
  std::string selected_strategy;  // empty when nothing could plan
  std::vector<PlannerCandidateScore> candidates;  // PlannerNames() order

  // Human-readable score table (one line per candidate, winner starred).
  std::string Table() const;
};

// Plans `classes` with the strategy picked by `options`:
//  * a forced strategy is built by MakePlanner and plans directly (the
//    report then holds that one candidate, with no simulated time);
//  * "auto" plans, compiles and simulates with every strategy and commits
//    the cost-model winner (ties break toward the first name in
//    PlannerNames() order, so selection is deterministic).
// `report` (optional) receives the per-candidate scores either way. Fails if
// the chosen strategy cannot plan the workload; under "auto", strategies
// that fail (e.g. p2p on a topology without full direct connectivity) are
// recorded in the report and skipped, and the call fails only when *no*
// strategy can plan.
Result<ClassPlan> PlanWithStrategy(const PlannerOptions& options, const CommClasses& classes,
                                   const Topology& topo, double bytes_per_unit,
                                   SelectionReport* report = nullptr);

}  // namespace dgcl

#endif  // DGCL_SIM_PLANNER_SELECT_H_
