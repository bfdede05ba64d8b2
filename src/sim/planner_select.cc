#include "sim/planner_select.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <utility>

#include "comm/compiled_plan.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

uint64_t ClassPlanTraffic(const ClassPlan& plan) {
  uint64_t traffic = 0;
  for (const ClassTree& tree : plan.trees) {
    traffic += static_cast<uint64_t>(tree.edges.size()) * tree.count;
  }
  return traffic;
}

// Plans with one strategy and fills in the planner-side fields of its
// scorecard; returns the plan so the winner does not have to be re-planned.
Result<ClassPlan> PlanCandidate(const std::string& strategy, const PlannerOptions& options,
                                const CommClasses& classes, const Topology& topo,
                                double bytes_per_unit, PlannerCandidateScore& score) {
  score.strategy = strategy;
  auto planner = MakePlanner(strategy, options);
  if (!planner.ok()) {
    score.error = planner.status().message();
    return planner.status();
  }
  Result<ClassPlan> plan = (*planner)->PlanClasses(classes, topo, bytes_per_unit);
  if (!plan.ok()) {
    score.error = plan.status().message();
    return plan.status();
  }
  score.planned = true;
  score.planned_cost_seconds = plan->planned_cost_seconds;
  score.num_stages = plan->NumStages();
  score.total_traffic = ClassPlanTraffic(*plan);
  return plan;
}

// Auto's candidates in PlannerNames() order, with the telemetry counters
// each one emits. The names are literals because the lock-free trace ring
// keeps the pointer; dgcl_trace parses them back.
struct AutoCandidate {
  const char* strategy;
  const char* cost_us;
  const char* sim_us;
  const char* selected;
};
constexpr AutoCandidate kAutoCandidates[] = {
    {"p2p", "auto.p2p.cost_us", "auto.p2p.sim_us", "auto.selected.p2p"},
    {"spst", "auto.spst.cost_us", "auto.spst.sim_us", "auto.selected.spst"},
    {"swap", "auto.swap.cost_us", "auto.swap.sim_us", "auto.selected.swap"},
};

}  // namespace

std::string SelectionReport::Table() const {
  std::string out =
      "  strategy        cost-model    simulated  stages      traffic\n";
  char line[160];
  for (const PlannerCandidateScore& c : candidates) {
    if (!c.planned) {
      std::snprintf(line, sizeof(line), "  %-16s  unplannable: %s\n", c.strategy.c_str(),
                    c.error.c_str());
    } else {
      std::snprintf(line, sizeof(line), "%c %-16s %9.3f ms %9.3f ms %7u %12" PRIu64 "\n",
                    c.selected ? '*' : ' ', c.strategy.c_str(),
                    c.planned_cost_seconds * 1e3, c.simulated_seconds * 1e3, c.num_stages,
                    c.total_traffic);
    }
    out += line;
  }
  return out;
}

Result<ClassPlan> PlanWithStrategy(const PlannerOptions& options, const CommClasses& classes,
                                   const Topology& topo, double bytes_per_unit,
                                   SelectionReport* report) {
  SelectionReport local;
  SelectionReport& rep = report != nullptr ? *report : local;
  rep = SelectionReport{};
  if (!(bytes_per_unit > 0.0) || !std::isfinite(bytes_per_unit)) {
    return Status::InvalidArgument("bytes_per_unit must be positive and finite");
  }

  if (!options.IsAuto()) {
    rep.candidates.emplace_back();
    Result<ClassPlan> plan =
        PlanCandidate(options.strategy, options, classes, topo, bytes_per_unit,
                      rep.candidates.back());
    if (plan.ok()) {
      rep.candidates.back().selected = true;
      rep.selected_strategy = options.strategy;
    }
    return plan;
  }

  DGCL_TSPAN1("planner", "select_strategy", "candidates", std::size(kAutoCandidates));
  Result<ClassPlan> best = Status::FailedPrecondition("no planner strategies");
  size_t best_index = 0;
  for (const AutoCandidate& candidate : kAutoCandidates) {
    rep.candidates.emplace_back();
    PlannerCandidateScore& score = rep.candidates.back();
    Result<ClassPlan> plan =
        PlanCandidate(candidate.strategy, options, classes, topo, bytes_per_unit, score);
    if (!plan.ok()) {
      continue;  // recorded in the report; auto skips unplannable strategies
    }
    const CompiledPlan compiled = CompilePlan(*plan, classes, topo);
    NetworkSimOptions sim;
    sim.bytes_per_unit = bytes_per_unit;
    score.simulated_seconds = SimulateTransfer(compiled, topo, sim).total_seconds;
    DGCL_TCOUNT("planner", candidate.cost_us, score.planned_cost_seconds * 1e6);
    DGCL_TCOUNT("planner", candidate.sim_us, score.simulated_seconds * 1e6);
    if (!best.ok() ||
        score.simulated_seconds < rep.candidates[best_index].simulated_seconds) {
      best = std::move(plan);
      best_index = rep.candidates.size() - 1;
    }
  }
  if (!best.ok()) {
    std::string errors;
    for (const PlannerCandidateScore& c : rep.candidates) {
      errors += "\n  " + c.strategy + ": " + c.error;
    }
    return Status::FailedPrecondition("auto-select: no strategy can plan this workload:" +
                                      errors);
  }
  rep.candidates[best_index].selected = true;
  rep.selected_strategy = rep.candidates[best_index].strategy;
  DGCL_TCOUNT("planner", kAutoCandidates[best_index].selected, 1);
  return best;
}

}  // namespace dgcl
