// perfbench core: the metric table, the result line, run metadata, rooflines
// and the span bookkeeping shared by every workload.
//
// Every metric the benchmark can print is declared once in kMetrics with its
// unit and whether it is an end-to-end metric (timed run, telemetry off) or a
// per-layer one (traced run). Report refuses any other name, and
// `perfbench_e2e --list-metrics` prints the table so run.py --selftest can
// hold it against BENCHMARK.json.

#ifndef DGCL_PERFBENCH_CORE_H_
#define DGCL_PERFBENCH_CORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/generators.h"
#include "telemetry/trace.h"

namespace perfbench {

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  MetricKind kind;
};

// The declared metrics, in print order.
const std::vector<MetricDef>& Metrics();

// One run's result: counts of attempted/failed operations, the check
// verdict, and one value per metric of the run's kind.
class Report {
 public:
  explicit Report(MetricKind kind) : kind_(kind) {}

  // Aborts the run (exit 3) on an undeclared name or a metric of the other
  // kind: a misspelt metric is a benchmark bug, not a result.
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  // Extra JSON fields for the record file (e.g. the loss trajectory).
  void AddRecord(const std::string& key, const std::string& json) {
    records_.emplace_back(key, json);
  }
  const std::vector<std::pair<std::string, std::string>>& records() const { return records_; }

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Names of declared metrics of this kind that have no value yet.
  std::vector<std::string> Missing() const;

  // The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson() const;
  // Human-readable "name = value unit" lines.
  std::string Table() const;

 private:
  MetricKind kind_;
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> records_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Run metadata printed with (and written next to) every result.
struct RunInfo {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git;  // "<sha>[-dirty]" from run.py, or "unknown"
};
std::string MetadataJson(const RunInfo& info);

// The stand-in dataset `id` at `inverse_scale`, generated once with the
// generator's fixed seed and its vertices relabeled by a permutation drawn
// from `seed`. Every seed gives the same graph shape and size, while
// partitions and plans still differ.
dgcl::Dataset SeededDataset(dgcl::DatasetId id, uint32_t inverse_scale, uint64_t seed);

double NowSeconds();

// Nearest-rank percentile (common/percentile.h) of a copy of `samples`.
double Pct(const std::vector<double>& samples, double p);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// Single-thread rooflines measured in this process: memcpy of a 64 MiB
// buffer, and a gather of random 256-byte rows from a 64 MiB table (the
// engine's access pattern). GB/s, median of several repetitions.
double MemcpyRoofline();
double RowGatherRoofline(uint64_t seed);
// Both, as roofline.* per-layer metrics.
void ReportRooflines(uint64_t seed, Report& report);

// Sets every per-layer metric whose name starts with `prefix` ("service.",
// "gnn.", ...) and has no value yet to 0: the workload made no call into
// that layer.
void ZeroUnused(Report& report, const std::string& prefix);

// ---- Spans -----------------------------------------------------------------
//
// Traced runs record bench-side spans (category "bench", around each layer
// call) together with the program's own telemetry spans, into the program's
// per-thread rings. Drain() moves everything recorded so far into memory and
// resets the rings, so rings of the short-lived engine pass threads never
// pile up; Write() stores the kept events as Chrome-trace JSON at the end.

// A bench-side span over the enclosing scope. Inert when telemetry is off.
using Span = dgcl::telemetry::ScopedSpan;

// Per span name: count, total duration and self time (duration minus the
// part covered by spans nested inside it on the same thread), in ms.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
using SpanSummary = std::map<std::string, SpanTotals>;
SpanSummary SummarizeSpans(const std::vector<dgcl::telemetry::TraceEvent>& events);

// Total of `name` in a summary (0 when absent).
double TotalMs(const SpanSummary& summary, const std::string& name);

class SpanLog {
 public:
  // Switches recording on with `ring_capacity` events per thread ring.
  void Start(size_t ring_capacity);
  // Drains, then switches recording off; returns the drained totals.
  SpanSummary Stop();
  // Moves what the rings hold into memory, resets the rings, and returns
  // the span totals of just those events. Only call while no other thread
  // records and no bench span is open.
  SpanSummary Drain();

  uint64_t events() const { return events_; }
  uint64_t dropped() const { return dropped_; }

  // Writes the kept events (the first kMaxKept) as Chrome-trace JSON.
  dgcl::Status Write(const std::string& path) const;

 private:
  static constexpr size_t kMaxKept = 200'000;
  std::vector<dgcl::telemetry::TraceEvent> kept_;
  uint64_t events_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // DGCL_PERFBENCH_CORE_H_
