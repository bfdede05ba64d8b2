// Cost-model accuracy auditing (Figure 10 of the paper, per stage).
//
// The planner prices every stage of a ClassPlan with the link-speed cost
// model; the runtime/simulator then observes what each stage actually took.
// CostAudit joins the two series and reports per-stage predicted-vs-observed
// ratios — the reproduction's running answer to the paper's "is the cost
// model accurate enough to plan with?" question.
//
// The audit is a pure join: callers supply the predicted seconds (e.g.
// ReplayClassPlanStageSeconds over a ClassPlan) and the observed seconds
// (simulated stage times, or per-stage span durations extracted from a
// recorded Trace via ObservedStageSecondsFromTrace). Keeping it data-in/
// data-out lets the telemetry library sit below the planner in the link
// graph while the planner stays instrumentable.

#ifndef DGCL_TELEMETRY_COST_AUDIT_H_
#define DGCL_TELEMETRY_COST_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/trace.h"

namespace dgcl {
namespace telemetry {

struct CostAuditRow {
  uint32_t stage = 0;
  double predicted_seconds = 0.0;
  double observed_seconds = 0.0;
  // observed / predicted; 0 when the prediction is zero and so is the
  // observation, +inf never (guarded to 0 with a flag instead).
  double ratio = 0.0;
  bool ratio_defined = false;
};

struct CostAuditReport {
  std::vector<CostAuditRow> rows;  // one per stage, stage index ascending
  double predicted_total_seconds = 0.0;
  double observed_total_seconds = 0.0;
  // Mean and worst |ratio - 1| over rows with a defined ratio — the headline
  // accuracy numbers (paper reports <10% error on real hardware).
  double mean_abs_error = 0.0;
  double max_abs_error = 0.0;

  std::string ToString(const std::string& title = "") const;
};

// Joins per-stage predicted and observed times. The series may have
// different lengths (a stage the runtime never entered, or trailing
// zero-cost stages); missing entries are treated as 0.
CostAuditReport AuditStageCosts(const std::vector<double>& predicted_seconds,
                                const std::vector<double>& observed_seconds);

// Extracts observed per-stage seconds from a recorded trace: for every span
// whose name is `span_name` and that carries an integer arg `stage_arg`, the
// stage's observed time is the MAX span duration over that stage (devices
// run stages in parallel; the slowest device defines the stage wall time).
std::vector<double> ObservedStageSecondsFromTrace(const Trace& trace,
                                                  const std::string& span_name = "stage",
                                                  const std::string& stage_arg = "stage");

}  // namespace telemetry
}  // namespace dgcl

#endif  // DGCL_TELEMETRY_COST_AUDIT_H_
