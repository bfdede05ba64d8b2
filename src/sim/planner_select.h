// Strategy auto-selection by simulated time ("auto" in PlannerOptions).
//
// Planning is cheap next to training, so "auto" simply plans the workload
// with every strategy, compiles each candidate, runs it through the
// discrete-event NetworkSim and commits the one that simulates fastest. The
// cost model (ClassPlan::planned_cost_seconds, the bandwidth-only t(S) that
// SPST minimizes) has no per-op latency, so it misranks latency-bound
// exchanges; it is recorded next to the simulated time, both in the returned
// SelectionReport and as telemetry counters ("planner" category,
// "auto.<strategy>.cost_us" / "auto.<strategy>.sim_us") so dgcl_trace can
// surface why a strategy won after the fact. A forced strategy is planned
// and nothing else.
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
  double planned_cost_seconds = 0.0;  // cost model t(S)
  double simulated_seconds = 0.0;     // NetworkSim forward-pass time — auto's ranking key
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
//    the one with the least simulated time (ties break toward the first
//    name in PlannerNames() order, so selection is deterministic).
// `report` (optional) receives the per-candidate scores either way. Fails
// with InvalidArgument unless `bytes_per_unit` is positive and finite, and
// fails if the chosen strategy cannot plan the workload; under "auto",
// strategies that fail (e.g. p2p on a topology without full direct
// connectivity) are recorded in the report and skipped, and the call fails
// only when *no* strategy can plan.
Result<ClassPlan> PlanWithStrategy(const PlannerOptions& options, const CommClasses& classes,
                                   const Topology& topo, double bytes_per_unit,
                                   SelectionReport* report = nullptr);

}  // namespace dgcl

#endif  // DGCL_SIM_PLANNER_SELECT_H_
