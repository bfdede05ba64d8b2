#include "telemetry/cost_audit.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sim/epoch_sim.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

using telemetry::AuditStageCosts;
using telemetry::CostAuditReport;
using telemetry::ObservedStageSecondsFromTrace;
using telemetry::Trace;
using telemetry::TraceEvent;
using telemetry::TraceEventKind;

TEST(CostAuditTest, JoinsSeriesOfDifferentLengths) {
  const CostAuditReport report = AuditStageCosts({1.0, 2.0}, {1.1, 2.0, 0.5});
  ASSERT_EQ(report.rows.size(), 3u);

  EXPECT_EQ(report.rows[0].stage, 0u);
  EXPECT_DOUBLE_EQ(report.rows[0].predicted_seconds, 1.0);
  EXPECT_DOUBLE_EQ(report.rows[0].observed_seconds, 1.1);
  EXPECT_TRUE(report.rows[0].ratio_defined);
  EXPECT_NEAR(report.rows[0].ratio, 1.1, 1e-12);

  EXPECT_TRUE(report.rows[1].ratio_defined);
  EXPECT_DOUBLE_EQ(report.rows[1].ratio, 1.0);

  // Stage 2 was never predicted: missing prediction = 0, ratio undefined.
  EXPECT_DOUBLE_EQ(report.rows[2].predicted_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.rows[2].observed_seconds, 0.5);
  EXPECT_FALSE(report.rows[2].ratio_defined);

  EXPECT_DOUBLE_EQ(report.predicted_total_seconds, 3.0);
  EXPECT_DOUBLE_EQ(report.observed_total_seconds, 3.6);
  // Errors over the two defined ratios: |1.1-1| and |1.0-1|.
  EXPECT_NEAR(report.mean_abs_error, 0.05, 1e-12);
  EXPECT_NEAR(report.max_abs_error, 0.1, 1e-12);

  const std::string rendered = report.ToString("test audit");
  EXPECT_NE(rendered.find("test audit"), std::string::npos);
  EXPECT_NE(rendered.find("total"), std::string::npos);
}

TEST(CostAuditTest, EmptySeriesProduceEmptyReport) {
  const CostAuditReport report = AuditStageCosts({}, {});
  EXPECT_TRUE(report.rows.empty());
  EXPECT_DOUBLE_EQ(report.mean_abs_error, 0.0);
}

TraceEvent StageSpan(uint32_t tid, uint64_t dur_ns, uint64_t stage) {
  TraceEvent e;
  e.name = "fwd.stage";
  e.category = "runtime";
  e.kind = TraceEventKind::kSpan;
  e.tid = tid;
  e.start_ns = 10 * tid;
  e.dur_ns = dur_ns;
  e.arg_key[0] = "stage";
  e.arg_val[0] = stage;
  return e;
}

TEST(CostAuditTest, ObservedStageSecondsTakesMaxPerStage) {
  Trace trace;
  trace.events.push_back(StageSpan(1, 100, 0));
  trace.events.push_back(StageSpan(2, 250, 0));  // slowest device defines stage 0
  trace.events.push_back(StageSpan(1, 400, 2));  // stage 1 never entered
  // Spans with other names or without a stage arg are ignored.
  TraceEvent other = StageSpan(1, 9999, 0);
  other.name = "fwd.send";
  trace.events.push_back(other);

  const std::vector<double> observed =
      ObservedStageSecondsFromTrace(trace, "fwd.stage", "stage");
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_DOUBLE_EQ(observed[0], 250e-9);
  EXPECT_DOUBLE_EQ(observed[1], 0.0);
  EXPECT_DOUBLE_EQ(observed[2], 400e-9);
}

// End-to-end on a known topology: with zero per-op latency the network
// simulator prices a stage exactly like the cost model (aggregate bytes over
// the bottleneck connection / bandwidth), so every defined per-stage ratio
// must be ~1.
TEST(CostAuditTest, AuditAllgatherRatiosNearOneWithoutLatency) {
  Rng rng(77);
  Dataset ds;
  ds.name = "audit";
  ds.graph = GenerateRmat({.scale = 10, .num_edges = 8000}, rng);
  ds.feature_dim = 64;
  ds.hidden_dim = 32;

  Topology topo = BuildPaperTopology(8);
  EpochOptions opts;
  opts.net.per_op_latency_s = 0.0;
  auto sim = EpochSimulator::Create(ds, topo, opts);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  auto report = sim->AuditAllgather(ds.feature_dim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->rows.empty());
  bool any_defined = false;
  for (const auto& row : report->rows) {
    if (!row.ratio_defined) continue;
    any_defined = true;
    EXPECT_NEAR(row.ratio, 1.0, 1e-6) << "stage " << row.stage;
  }
  EXPECT_TRUE(any_defined);
  EXPECT_LT(report->max_abs_error, 1e-6);
  EXPECT_GT(report->predicted_total_seconds, 0.0);
  EXPECT_GT(report->observed_total_seconds, 0.0);
}

// With per-op latency back on, the simulator observes strictly more time
// than the latency-free cost model predicts — ratios shift above 1 and the
// audit reports the (positive) modelling error.
TEST(CostAuditTest, AuditAllgatherDetectsLatencyAsModelError) {
  Rng rng(77);
  Dataset ds;
  ds.name = "audit";
  ds.graph = GenerateRmat({.scale = 10, .num_edges = 8000}, rng);
  ds.feature_dim = 64;
  ds.hidden_dim = 32;

  Topology topo = BuildPaperTopology(8);
  EpochOptions opts;
  opts.net.per_op_latency_s = 20e-6;
  auto sim = EpochSimulator::Create(ds, topo, opts);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  auto report = sim->AuditAllgather(ds.feature_dim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->observed_total_seconds, report->predicted_total_seconds);
  EXPECT_GT(report->max_abs_error, 0.0);
}

// Calibration against a *real* engine trace: the pass actually runs on the
// threaded runtime with bandwidth emulation, so observed times carry
// scheduler noise, spin-wait latencies and coordination overhead. Assertions
// are structural (report joins, totals positive, ratios defined) — tight
// ratio bounds would flake under sanitizers and loaded CI hosts.
TEST(CostAuditTest, AuditFromEngineTraceJoinsPredictedAndObserved) {
  Rng rng(77);
  Dataset ds;
  ds.name = "audit-engine";
  ds.graph = GenerateRmat({.scale = 10, .num_edges = 8000}, rng);
  ds.feature_dim = 64;
  ds.hidden_dim = 32;

  Topology topo = BuildPaperTopology(8);
  EpochOptions opts;
  opts.net.per_op_latency_s = 0.0;
  auto sim = EpochSimulator::Create(ds, topo, opts);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  auto report = sim->AuditAllgatherFromEngine(/*dim=*/16, /*time_scale=*/10.0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->rows.empty());
  EXPECT_GT(report->predicted_total_seconds, 0.0);
  EXPECT_GT(report->observed_total_seconds, 0.0);
  bool any_defined = false;
  for (const auto& row : report->rows) {
    EXPECT_GE(row.observed_seconds, 0.0) << "stage " << row.stage;
    if (row.ratio_defined) {
      any_defined = true;
      EXPECT_GT(row.ratio, 0.0) << "stage " << row.stage;
    }
  }
  EXPECT_TRUE(any_defined);
}

}  // namespace
}  // namespace dgcl
