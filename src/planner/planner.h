// Planner interface: communication classes + topology -> communication plan.
//
// Planners operate on destination-set equivalence classes (CommClasses), not
// raw vertices: every vertex of a class has the same source and destination
// set, so one tree serves the whole class and the cost model is charged the
// class weight in one shot. The runtime form comes from compiling the class
// plan directly (CompilePlan(ClassPlan, ...)); expanding it to per-vertex
// trees (ExpandClassPlan) gives the reference form, and compiling that
// yields byte-identical tables.

#ifndef DGCL_PLANNER_PLANNER_H_
#define DGCL_PLANNER_PLANNER_H_

#include <string>

#include "comm/plan.h"
#include "comm/relation.h"
#include "common/status.h"
#include "topology/topology.h"

namespace dgcl {

class Planner {
 public:
  virtual ~Planner() = default;

  // `bytes_per_unit` is the embedding size in bytes; per §5.1 the optimal
  // plan is independent of it, but cost-model-driven planners still need a
  // consistent unit.
  virtual Result<ClassPlan> PlanClasses(const CommClasses& classes, const Topology& topo,
                                        double bytes_per_unit) = 0;

  // Convenience wrapper: groups the relation into classes, plans, and
  // expands the class trees back into the per-vertex plan.
  Result<CommPlan> Plan(const CommRelation& relation, const Topology& topo,
                        double bytes_per_unit);

  virtual std::string name() const = 0;
};

}  // namespace dgcl

#endif  // DGCL_PLANNER_PLANNER_H_
