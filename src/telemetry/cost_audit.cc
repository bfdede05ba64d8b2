#include "telemetry/cost_audit.h"

#include <algorithm>
#include <cmath>

#include "common/table_printer.h"

namespace dgcl {
namespace telemetry {

CostAuditReport AuditStageCosts(const std::vector<double>& predicted_seconds,
                                const std::vector<double>& observed_seconds) {
  CostAuditReport report;
  const size_t stages = std::max(predicted_seconds.size(), observed_seconds.size());
  report.rows.reserve(stages);
  double error_sum = 0.0;
  size_t error_count = 0;
  for (size_t s = 0; s < stages; ++s) {
    CostAuditRow row;
    row.stage = static_cast<uint32_t>(s);
    row.predicted_seconds = s < predicted_seconds.size() ? predicted_seconds[s] : 0.0;
    row.observed_seconds = s < observed_seconds.size() ? observed_seconds[s] : 0.0;
    if (row.predicted_seconds > 0.0) {
      row.ratio = row.observed_seconds / row.predicted_seconds;
      row.ratio_defined = true;
      const double err = std::abs(row.ratio - 1.0);
      error_sum += err;
      ++error_count;
      report.max_abs_error = std::max(report.max_abs_error, err);
    }
    report.predicted_total_seconds += row.predicted_seconds;
    report.observed_total_seconds += row.observed_seconds;
    report.rows.push_back(row);
  }
  if (error_count > 0) {
    report.mean_abs_error = error_sum / static_cast<double>(error_count);
  }
  return report;
}

std::vector<double> ObservedStageSecondsFromTrace(const Trace& trace,
                                                  const std::string& span_name,
                                                  const std::string& stage_arg) {
  std::vector<double> observed;
  for (const TraceEvent& ev : trace.events) {
    if (ev.kind != TraceEventKind::kSpan || ev.name != span_name) continue;
    for (size_t i = 0; i < ev.arg_key.size(); ++i) {
      if (ev.arg_key[i] != stage_arg) continue;
      const size_t stage = static_cast<size_t>(ev.arg_val[i]);
      if (observed.size() <= stage) observed.resize(stage + 1, 0.0);
      observed[stage] = std::max(observed[stage], ev.dur_ns / 1e9);
      break;
    }
  }
  return observed;
}

std::string CostAuditReport::ToString(const std::string& title) const {
  TablePrinter table({"Stage", "Predicted ms", "Observed ms", "Obs/Pred"});
  for (const CostAuditRow& row : rows) {
    table.AddRow({TablePrinter::FmtInt(row.stage), TablePrinter::Fmt(row.predicted_seconds * 1e3, 4),
                  TablePrinter::Fmt(row.observed_seconds * 1e3, 4),
                  row.ratio_defined ? TablePrinter::Fmt(row.ratio, 3) : "-"});
  }
  table.AddRow({"total", TablePrinter::Fmt(predicted_total_seconds * 1e3, 4),
                TablePrinter::Fmt(observed_total_seconds * 1e3, 4),
                predicted_total_seconds > 0.0
                    ? TablePrinter::Fmt(observed_total_seconds / predicted_total_seconds, 3)
                    : "-"});
  std::string rendered =
      table.Render(title.empty() ? "CostAudit: predicted vs observed per stage" : title);
  rendered += "  mean |obs/pred - 1| = " + TablePrinter::Fmt(mean_abs_error, 4) +
              ", max = " + TablePrinter::Fmt(max_abs_error, 4) + "\n";
  return rendered;
}

}  // namespace telemetry
}  // namespace dgcl
