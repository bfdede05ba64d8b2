#include "planner/cost_model.h"

#include <algorithm>

#include "common/logging.h"

namespace dgcl {

CostModel::CostModel(const Topology& topo, uint32_t max_stages, double bytes_per_unit)
    : topo_(&topo), max_stages_(max_stages), bytes_per_unit_(bytes_per_unit) {
  DGCL_CHECK_GT(max_stages, 0u);
  DGCL_CHECK_GT(bytes_per_unit, 0.0);
  loads_.assign(max_stages, std::vector<uint64_t>(topo.num_connections(), 0));
  stage_seconds_.assign(max_stages, 0.0);
}

double CostModel::HopSeconds(uint32_t stage, ConnId conn, uint64_t extra_units) const {
  const double bytes = static_cast<double>(loads_[stage][conn] + extra_units) * bytes_per_unit_;
  return bytes / (topo_->connection(conn).bandwidth_gbps * 1e9);
}

void CostModel::AddTransfer(LinkId link, uint32_t stage, uint64_t units) {
  DGCL_CHECK_LT(stage, max_stages_);
  double new_stage_max = stage_seconds_[stage];
  for (ConnId hop : topo_->link(link).hops) {
    loads_[stage][hop] += units;
    new_stage_max = std::max(new_stage_max, HopSeconds(stage, hop, 0));
  }
  total_seconds_ += new_stage_max - stage_seconds_[stage];
  stage_seconds_[stage] = new_stage_max;
}

double CostModel::IncrementalCost(LinkId link, uint32_t stage, uint64_t units) const {
  DGCL_CHECK_LT(stage, max_stages_);
  double new_max = stage_seconds_[stage];
  for (ConnId hop : topo_->link(link).hops) {
    new_max = std::max(new_max, HopSeconds(stage, hop, units));
  }
  return new_max - stage_seconds_[stage];
}

double CostModel::ConnBusySeconds(ConnId conn) const {
  double busy = 0.0;
  for (uint32_t k = 0; k < max_stages_; ++k) {
    if (loads_[k][conn] != 0) {
      busy += HopSeconds(k, conn, 0);
    }
  }
  return busy;
}

double ReplayClassPlanCost(const ClassPlan& plan, const Topology& topo, double bytes_per_unit) {
  if (plan.num_devices <= 1) {
    return 0.0;
  }
  CostModel model(topo, plan.num_devices - 1, bytes_per_unit);
  for (const ClassTree& tree : plan.trees) {
    for (const TreeEdge& e : tree.edges) {
      model.AddTransfer(e.link, e.stage, tree.count);
    }
  }
  return model.TotalSeconds();
}

std::vector<double> ReplayClassPlanStageSeconds(const ClassPlan& plan, const Topology& topo,
                                                double bytes_per_unit) {
  if (plan.num_devices <= 1) {
    return {};
  }
  CostModel model(topo, plan.num_devices - 1, bytes_per_unit);
  uint32_t max_stage_used = 0;
  for (const ClassTree& tree : plan.trees) {
    for (const TreeEdge& e : tree.edges) {
      model.AddTransfer(e.link, e.stage, tree.count);
      max_stage_used = std::max(max_stage_used, e.stage);
    }
  }
  std::vector<double> stage_seconds(plan.trees.empty() ? 0 : max_stage_used + 1, 0.0);
  for (uint32_t k = 0; k < stage_seconds.size(); ++k) {
    stage_seconds[k] = model.StageSeconds(k);
  }
  return stage_seconds;
}

double EvaluatePlanCost(const CommPlan& plan, const Topology& topo, double bytes_per_unit) {
  const uint32_t stages = std::max(plan.NumStages(), 1u);
  CostModel model(topo, stages, bytes_per_unit);
  for (const CommTree& tree : plan.trees) {
    for (const TreeEdge& e : tree.edges) {
      model.AddTransfer(e.link, e.stage);
    }
  }
  return model.TotalSeconds();
}

}  // namespace dgcl
