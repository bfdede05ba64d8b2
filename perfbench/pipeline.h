// The full-graph set-up, two ways:
//  * TimedSetup: DgclContext::Init + BuildCommInfo, the call a user makes,
//    timed from outside as one number (setup_s);
//  * LayeredSetup: the same pipeline driven one public layer call at a time
//    (PartitionForTopology, BuildCommRelation/BuildCommClasses,
//    PlanWithStrategy, ExpandClassPlan/ValidatePlan,
//    CompilePlan/AssignBackwardSubstages, AllgatherEngine::Create), each
//    timed and wrapped in a bench-side span named after the program's own
//    phase span, so per-layer times come from outside the library.

#ifndef DGCL_PERFBENCH_PIPELINE_H_
#define DGCL_PERFBENCH_PIPELINE_H_

#include <optional>

#include "core.h"
#include "dgcl/dgcl.h"

namespace perfbench {

struct Setup {
  std::optional<dgcl::DgclContext> context;
  double seconds = 0.0;  // Init + BuildCommInfo
};
dgcl::Result<Setup> TimedSetup(const dgcl::CsrGraph& graph, uint32_t gpus);

struct PhaseSeconds {
  double partition = 0.0;
  double relation = 0.0;  // BuildCommRelation + BuildCommClasses
  double plan = 0.0;
  double expand = 0.0;    // ExpandClassPlan + ValidatePlan
  double compile = 0.0;   // CompilePlan + AssignBackwardSubstages
  double arm = 0.0;       // AllgatherEngine::Create

  double Sum() const { return partition + relation + plan + expand + compile + arm; }
};

// Runs the layer calls once, timing each; everything they build is freed
// on return.
dgcl::Result<PhaseSeconds> LayeredSetup(const dgcl::CsrGraph& graph, uint32_t gpus);

// Per-layer facts of a finished set-up, reported by the traced run.
void ReportPlanFacts(const dgcl::CsrGraph& graph, const dgcl::PlanArtifacts& artifacts,
                     uint32_t dim, Report& report);

}  // namespace perfbench

#endif  // DGCL_PERFBENCH_PIPELINE_H_
