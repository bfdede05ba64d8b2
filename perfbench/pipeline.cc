#include "pipeline.h"

#include "comm/plan.h"
#include "graph/khop.h"
#include "partition/hierarchical.h"
#include "partition/multilevel.h"
#include "sim/planner_select.h"
#include "topology/presets.h"

namespace perfbench {

using dgcl::CsrGraph;
using dgcl::Result;

Result<Setup> TimedSetup(const CsrGraph& graph, uint32_t gpus) {
  Setup setup;
  dgcl::Topology topology = dgcl::BuildPaperTopology(gpus);
  const double t0 = NowSeconds();
  {
    Span span("bench", "setup");
    DGCL_ASSIGN_OR_RETURN(dgcl::DgclContext context, dgcl::DgclContext::Init(std::move(topology)));
    DGCL_RETURN_IF_ERROR(context.BuildCommInfo(graph));
    setup.context.emplace(std::move(context));
  }
  setup.seconds = NowSeconds() - t0;
  return setup;
}

Result<PhaseSeconds> LayeredSetup(const CsrGraph& graph, uint32_t gpus) {
  // BuildCommInfo's defaults, so both set-ups plan the same thing.
  const dgcl::DgclOptions options;
  const dgcl::Topology topology = dgcl::BuildPaperTopology(gpus);
  PhaseSeconds seconds;
  double t = NowSeconds();
  auto lap = [&t]() {
    const double now = NowSeconds();
    const double lap_seconds = now - t;
    t = now;
    return lap_seconds;
  };
  dgcl::Partitioning partitioning;
  {
    Span span("bench", "phase.partition");
    dgcl::MultilevelPartitioner partitioner(options.partition);
    DGCL_ASSIGN_OR_RETURN(partitioning, dgcl::PartitionForTopology(graph, topology, partitioner));
  }
  seconds.partition = lap();
  dgcl::CommRelation relation;
  dgcl::CommClasses classes;
  {
    Span span("bench", "phase.relation");
    DGCL_ASSIGN_OR_RETURN(relation, dgcl::BuildCommRelation(graph, partitioning));
    classes = dgcl::BuildCommClasses(relation);
  }
  seconds.relation = lap();
  dgcl::ClassPlan class_plan;
  {
    Span span("bench", "phase.plan");
    dgcl::SelectionReport selection;
    DGCL_ASSIGN_OR_RETURN(class_plan, dgcl::PlanWithStrategy(options.planner, classes, topology,
                                                             options.bytes_per_unit, &selection));
  }
  seconds.plan = lap();
  {
    Span span("bench", "phase.expand");
    const dgcl::CommPlan plan = dgcl::ExpandClassPlan(class_plan, classes);
    DGCL_RETURN_IF_ERROR(dgcl::ValidatePlan(plan, relation, topology));
  }
  seconds.expand = lap();
  dgcl::CompiledPlan compiled;
  {
    Span span("bench", "phase.compile");
    compiled = dgcl::CompilePlan(class_plan, classes, topology);
    dgcl::AssignBackwardSubstages(compiled);
  }
  seconds.compile = lap();
  {
    Span span("bench", "phase.arm_engine");
    DGCL_ASSIGN_OR_RETURN(dgcl::AllgatherEngine engine,
                          dgcl::AllgatherEngine::Create(relation, std::move(compiled), topology,
                                                        options.engine));
    seconds.arm = lap();
  }
  return seconds;
}

namespace {

// Row bytes a forward pass moves over all ops (the backward pass moves the
// same rows in reverse).
uint64_t PassBytes(const dgcl::CompiledPlan& plan, uint32_t dim) {
  uint64_t rows = 0;
  for (const dgcl::TransferOp& op : plan.ops) {
    rows += op.vertices.size();
  }
  return rows * dim * sizeof(float);
}

}  // namespace

void ReportPlanFacts(const CsrGraph& graph, const dgcl::PlanArtifacts& a, uint32_t dim,
                     Report& report) {
  const dgcl::PartitionQuality quality = dgcl::EvaluatePartition(graph, a.partitioning);
  report.Set("partition.edge_cut", static_cast<double>(quality.edge_cut));
  report.Set("partition.replication_factor",
             dgcl::ReplicationFactor(graph, a.partitioning.assignment,
                                     a.partitioning.num_parts, /*hops=*/1));
  uint64_t remote_rows = 0;
  for (const auto& remotes : a.relation.remote_vertices) {
    remote_rows += remotes.size();
  }
  report.Set("comm.classes", static_cast<double>(a.classes.classes.size()));
  report.Set("comm.remote_rows", static_cast<double>(remote_rows));
  report.Set("planner.ops", static_cast<double>(a.compiled.ops.size()));
  report.Set("planner.stages", static_cast<double>(a.compiled.num_stages));
  double cost_seconds = 0.0;
  for (const dgcl::PlannerCandidateScore& c : a.selection.candidates) {
    if (c.selected) {
      cost_seconds = c.planned_cost_seconds;
    }
  }
  report.Set("planner.cost_ms", cost_seconds * 1e3);
  report.Set("runtime.fwd.bytes", static_cast<double>(PassBytes(a.compiled, dim)));
  report.Set("runtime.bwd.bytes", static_cast<double>(PassBytes(a.compiled, dim)));
}

}  // namespace perfbench
