#include "core.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/percentile.h"
#include "common/rng.h"
#include "telemetry/chrome_trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using dgcl::telemetry::Telemetry;
using dgcl::telemetry::TraceEvent;
using dgcl::telemetry::TraceEventKind;

const std::vector<MetricDef>& Metrics() {
  constexpr MetricKind E = MetricKind::kEndToEnd;
  constexpr MetricKind L = MetricKind::kPerLayer;
  static const std::vector<MetricDef> kMetrics = {
      // End to end. "op" is the workload's unit of work: a training epoch
      // (train-orkut-4dev), an Init + BuildCommInfo on a fresh context
      // (setup-orkut-16dev), a served request (serve-reddit-4shard).
      {"setup_s", "s", E},
      {"peak_rss_mb", "MB", E},  // up to the end of the measured loop
      // Only the median: a training run has ~60 epochs and a set-up run ~10
      // set-ups, too few for a tail percentile with ten samples beyond it.
      // Serving's tail is the per-layer service.request_ms_p99 and its
      // throughput service.rps: in the closed loop throughput follows the
      // host's load, spreading twice as much as the median run to run.
      {"op_ms_p50", "ms", E},
      // partition
      {"partition.s", "s", L},
      {"partition.edge_cut", "count", L},
      {"partition.replication_factor", "ratio", L},
      // comm
      {"comm.relation.s", "s", L},
      {"comm.expand.s", "s", L},
      {"comm.compile.s", "s", L},
      {"comm.classes", "count", L},
      {"comm.remote_rows", "count", L},
      // planner
      {"planner.plan.s", "s", L},
      {"planner.ops", "count", L},
      {"planner.stages", "count", L},
      {"planner.cost_ms", "ms", L},
      // set-up as a whole: the phases above against the traced set-up
      {"setup.phase_sum_s", "s", L},
      {"setup.phase_share", "ratio", L},
      // runtime
      {"runtime.arm.s", "s", L},
      {"runtime.fwd.bytes", "B", L},
      {"runtime.bwd.bytes", "B", L},
      {"runtime.fwd.gbps", "GB/s", L},
      {"runtime.fwd.ms_p50", "ms", L},
      {"runtime.fwd.ms_p90", "ms", L},
      {"runtime.bwd.ms_p50", "ms", L},
      {"runtime.bwd.ms_p90", "ms", L},
      {"runtime.fwd.wait_ms", "ms", L},
      {"runtime.bwd.wait_ms", "ms", L},
      {"runtime.fwd.busy_ms", "ms", L},
      {"runtime.bwd.busy_ms", "ms", L},
      {"runtime.transport.retries", "count", L},
      {"roofline.memcpy_gbps", "GB/s", L},
      {"roofline.gather_gbps", "GB/s", L},
      // gnn (per epoch)
      {"gnn.layer.allgather_ms", "ms", L},
      {"gnn.layer.compute_ms", "ms", L},
      {"gnn.layer.bwd.compute_ms", "ms", L},
      {"gnn.layer.bwd.allgather_ms", "ms", L},
      {"gnn.grad.sync_ms", "ms", L},
      {"gnn.epoch.self_ms", "ms", L},
      {"gnn.epoch.coverage", "ratio", L},
      // service (per request unless a total)
      {"service.queue_ms_p50", "ms", L},
      {"service.sample_ms", "ms", L},
      {"service.features_ms", "ms", L},
      {"service.infer_ms", "ms", L},
      {"service.request.self_ms", "ms", L},
      {"service.request_ms_p99", "ms", L},
      {"service.rps", "1/s", L},
      {"service.cache.hit_rate", "ratio", L},
      {"service.cache.lookups", "count", L},
      {"service.cache.evictions", "count", L},
      {"service.fetch.messages", "count", L},
      {"service.fetch.bytes", "B", L},
      {"service.fetch.rows_per_message", "count", L},
      // the traced run against the untraced one
      {"trace.op_ms_p50", "ms", L},
      {"trace.overhead_ms", "ms", L},
      {"trace.setup_s", "s", L},
      {"trace.events", "count", L},
      {"trace.dropped_events", "count", L},
  };
  return kMetrics;
}

namespace {

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& m : Metrics()) {
    if (name == m.name) {
      return &m;
    }
  }
  return nullptr;
}

// All the digits of a double, as JSON.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  const MetricDef* def = FindMetric(name);
  if (def == nullptr || def->kind != kind_) {
    std::fprintf(stderr, "perfbench: metric '%s' is not a declared %s metric\n", name.c_str(),
                 kind_ == MetricKind::kEndToEnd ? "end-to-end" : "per-layer");
    std::exit(3);
  }
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  values_[name] = value;
}

void Report::Fail(const std::string& what) {
  ++failed_;
  failures_.push_back(what);
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

std::vector<std::string> Report::Missing() const {
  std::vector<std::string> missing;
  for (const MetricDef& m : Metrics()) {
    if (m.kind == kind_ && !values_.count(m.name)) {
      missing.push_back(m.name);
    }
  }
  return missing;
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : Metrics()) {
    auto it = values_.find(m.name);
    if (it == values_.end()) {
      continue;
    }
    out += first ? "" : ", ";
    first = false;
    // Appended piece by piece: `"literal" + std::string` trips GCC 12's
    // -Wrestrict false positive.
    out += '"';
    out += m.name;
    out += "\": {\"value\": ";
    out += Num(it->second);
    out += ", \"unit\": \"";
    out += m.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

std::string Report::Table() const {
  std::string out;
  for (const MetricDef& m : Metrics()) {
    auto it = values_.find(m.name);
    if (it == values_.end()) {
      continue;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "  %-32s %16.6g %s\n", m.name, it->second, m.unit);
    out += line;
  }
  return out;
}

std::string MetadataJson(const RunInfo& info) {
  std::string out = "{";
  out += "\"workload\": \"" + info.workload + "\"";
  out += ", \"seed\": " + std::to_string(info.seed);
  out += ", \"seconds\": " + Num(info.seconds);
  out += ", \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"compiler\": \"gcc " + std::string(__VERSION__) + "\"";
  out += ", \"git\": \"" + info.git + "\"";
  out += ", \"telemetry_compiled\": ";
  out += DGCL_TELEMETRY_ENABLED ? "true" : "false";
  out += ", \"telemetry_runtime\": ";
  out += info.trace ? "true" : "false";
  out += "}";
  return out;
}

dgcl::Dataset SeededDataset(dgcl::DatasetId id, uint32_t inverse_scale, uint64_t seed) {
  dgcl::Dataset dataset = dgcl::MakeDataset(id, inverse_scale);
  const dgcl::CsrGraph& graph = dataset.graph;
  dgcl::Rng rng(seed);
  const std::vector<uint32_t> label = rng.Permutation(graph.num_vertices());
  std::vector<dgcl::Edge> edges;
  edges.reserve(graph.num_edges());
  for (dgcl::VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (dgcl::VertexId u : graph.Neighbors(v)) {
      edges.push_back({label[v], label[u]});
    }
  }
  // Both directions are already in the list.
  auto relabeled = dgcl::CsrGraph::FromEdges(graph.num_vertices(), std::move(edges),
                                             /*symmetrize=*/false);
  if (!relabeled.ok()) {
    std::fprintf(stderr, "perfbench: relabeling %s failed: %s\n", dataset.name.c_str(),
                 relabeled.status().ToString().c_str());
    std::exit(3);
  }
  dataset.graph = std::move(*relabeled);
  return dataset;
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Pct(const std::vector<double>& samples, double p) { return dgcl::Percentile(samples, p); }

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

constexpr size_t kRooflineBytes = size_t{64} << 20;
constexpr size_t kRowBytes = 256;
constexpr int kRooflineReps = 5;

}  // namespace

double MemcpyRoofline() {
  std::vector<char> src(kRooflineBytes, 1);
  std::vector<char> dst(kRooflineBytes, 0);
  std::vector<double> gbps;
  for (int r = 0; r < kRooflineReps; ++r) {
    src[static_cast<size_t>(r)] = static_cast<char>(r);
    const double t0 = NowSeconds();
    std::memcpy(dst.data(), src.data(), kRooflineBytes);
    const double t1 = NowSeconds();
    if (dst[static_cast<size_t>(r)] != static_cast<char>(r)) {
      std::abort();  // keeps the copy observable
    }
    gbps.push_back(static_cast<double>(kRooflineBytes) / (t1 - t0) / 1e9);
  }
  return Pct(gbps, 0.5);
}

double RowGatherRoofline(uint64_t seed) {
  const size_t rows = kRooflineBytes / kRowBytes;
  std::vector<char> table(kRooflineBytes, 1);
  std::vector<char> out(kRooflineBytes, 0);
  std::vector<uint32_t> order(rows);
  dgcl::Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    order[i] = static_cast<uint32_t>(rng.UniformInt(rows));
  }
  std::vector<double> gbps;
  for (int r = 0; r < kRooflineReps; ++r) {
    const double t0 = NowSeconds();
    for (size_t i = 0; i < rows; ++i) {
      std::memcpy(out.data() + i * kRowBytes, table.data() + order[i] * kRowBytes, kRowBytes);
    }
    const double t1 = NowSeconds();
    gbps.push_back(static_cast<double>(kRooflineBytes) / (t1 - t0) / 1e9);
  }
  if (out[rows / 2 * kRowBytes] != 1) {
    std::abort();
  }
  return Pct(gbps, 0.5);
}

void ReportRooflines(uint64_t seed, Report& report) {
  const double memcpy_gbps = MemcpyRoofline();
  const double gather_gbps = RowGatherRoofline(seed);
  report.Set("roofline.memcpy_gbps", memcpy_gbps);
  report.Set("roofline.gather_gbps", gather_gbps);
  std::printf("rooflines (one thread): memcpy %.2f GB/s, random 256-B row gather %.2f GB/s\n",
              memcpy_gbps, gather_gbps);
}

void ZeroUnused(Report& report, const std::string& prefix) {
  for (const MetricDef& m : Metrics()) {
    const std::string name = m.name;
    if (m.kind == MetricKind::kPerLayer && name.rfind(prefix, 0) == 0 && !report.Has(name)) {
      report.Set(name, 0.0);
    }
  }
}

// ---- Spans -----------------------------------------------------------------

void SpanLog::Start(size_t ring_capacity) {
  Telemetry& t = Telemetry::Get();
  t.Reset();
  t.SetRecorderCapacity(ring_capacity);
  t.SetEnabled(true);
}

SpanSummary SpanLog::Stop() {
  SpanSummary summary = Drain();
  Telemetry::Get().SetEnabled(false);
  return summary;
}

SpanSummary SpanLog::Drain() {
  Telemetry& t = Telemetry::Get();
  dgcl::telemetry::Trace trace = t.Collect();
  t.Reset();
  events_ += trace.events.size();
  dropped_ += trace.dropped_events;
  SpanSummary summary = SummarizeSpans(trace.events);
  for (TraceEvent& e : trace.events) {
    if (kept_.size() >= kMaxKept) {
      break;
    }
    kept_.push_back(std::move(e));
  }
  return summary;
}

dgcl::Status SpanLog::Write(const std::string& path) const {
  dgcl::telemetry::Trace trace;
  trace.events = kept_;
  trace.dropped_events = dropped_;
  return dgcl::telemetry::WriteChromeTrace(trace, path);
}

double TotalMs(const SpanSummary& summary, const std::string& name) {
  auto it = summary.find(name);
  return it == summary.end() ? 0.0 : it->second.total_ms;
}

SpanSummary SummarizeSpans(const std::vector<TraceEvent>& events) {
  // Group spans by thread; within a thread a span's parent is the innermost
  // earlier span that fully contains it. `events` come from one drain, in
  // which a telemetry thread id names one thread (ids restart after Reset).
  std::map<uint32_t, std::vector<const TraceEvent*>> by_thread;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kSpan) {
      by_thread[e.tid].push_back(&e);
    }
  }
  SpanSummary totals;
  for (auto& [tid, spans] : by_thread) {
    std::stable_sort(spans.begin(), spans.end(), [](const TraceEvent* a, const TraceEvent* b) {
      if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
      return a->dur_ns > b->dur_ns;  // parents before children at equal starts
    });
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < spans.size(); ++i) {
      const TraceEvent& s = *spans[i];
      const uint64_t end = s.start_ns + s.dur_ns;
      while (!stack.empty()) {
        const TraceEvent& top = *spans[stack.back()];
        if (top.start_ns + top.dur_ns <= s.start_ns) {
          stack.pop_back();
        } else {
          break;
        }
      }
      // Innermost containing span (a partial overlap, e.g. the service's
      // queue span that starts at submit time, has no parent).
      for (size_t k = stack.size(); k-- > 0;) {
        const TraceEvent& p = *spans[stack[k]];
        if (p.start_ns <= s.start_ns && end <= p.start_ns + p.dur_ns) {
          child_ns[stack[k]] += static_cast<double>(s.dur_ns);
          break;
        }
      }
      stack.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[spans[i]->name];
      const double ms = static_cast<double>(spans[i]->dur_ns) / 1e6;
      ++t.count;
      t.total_ms += ms;
      t.self_ms += std::max(0.0, ms - child_ns[i] / 1e6);
    }
  }
  return totals;
}

}  // namespace perfbench
