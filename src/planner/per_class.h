// Shared driver for the load-oblivious baseline planners.
//
// A load-oblivious planner derives each class tree from the class alone, so
// it plans one tree per class, in class order, and stops at the first class
// that fails. The finished plan is priced by replaying the trees through a
// fresh CostModel (the same accounting SPST does incrementally while
// planning).

#ifndef DGCL_PLANNER_PER_CLASS_H_
#define DGCL_PLANNER_PER_CLASS_H_

#include <string>
#include <utility>

#include "planner/cost_model.h"
#include "planner/planner.h"

namespace dgcl {
namespace internal {

template <typename PlanOneClass>
Result<ClassPlan> PlanEachClass(const CommClasses& classes, const Topology& topo,
                                double bytes_per_unit, std::string planner_name,
                                const PlanOneClass& plan_one) {
  if (classes.num_devices != topo.num_devices()) {
    return Status::InvalidArgument("relation/topology device count mismatch");
  }
  ClassPlan plan;
  plan.num_devices = classes.num_devices;
  plan.planner_name = std::move(planner_name);
  plan.trees.resize(classes.classes.size());
  for (uint32_t c = 0; c < plan.trees.size(); ++c) {
    ClassTree& tree = plan.trees[c];
    tree.class_id = c;
    tree.first = 0;
    tree.count = static_cast<uint32_t>(classes.classes[c].vertices.size());
    DGCL_RETURN_IF_ERROR(plan_one(classes.classes[c], tree));
  }
  plan.planned_cost_seconds = ReplayClassPlanCost(plan, topo, bytes_per_unit);
  return plan;
}

}  // namespace internal
}  // namespace dgcl

#endif  // DGCL_PLANNER_PER_CLASS_H_
