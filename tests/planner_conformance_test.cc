// Conformance suite over every strategy of PlannerNames(): each must
// produce valid plans, compile identically via the class and per-vertex
// paths, be deterministic across runs, and carry its provenance through
// plan_io. A strategy added to the table gets all of this for free.

#include <cstdio>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "comm/plan_io.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "planner/cost_model.h"
#include "planner/strategy.h"
#include "sim/planner_select.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct Workload {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;
  CommClasses classes;
};

Workload MakeWorkload(uint32_t num_gpus, uint32_t machines = 1, uint64_t seed = 1) {
  Workload w;
  Rng rng(seed);
  w.graph = GenerateErdosRenyi(120, 420, rng);
  if (machines > 1) {
    MachineConfig config;
    config.num_gpus = num_gpus;
    w.topo = BuildCluster(machines, config);
  } else {
    w.topo = BuildPaperTopology(num_gpus);
  }
  HashPartitioner hash;
  w.relation = *BuildCommRelation(w.graph, *hash.Partition(w.graph, w.topo.num_devices()));
  w.classes = BuildCommClasses(w.relation);
  return w;
}

bool SamePlan(const ClassPlan& a, const ClassPlan& b) {
  if (a.num_devices != b.num_devices || a.trees.size() != b.trees.size() ||
      a.planner_name != b.planner_name) {
    return false;
  }
  for (size_t t = 0; t < a.trees.size(); ++t) {
    const ClassTree& x = a.trees[t];
    const ClassTree& y = b.trees[t];
    if (x.class_id != y.class_id || x.first != y.first || x.count != y.count ||
        x.edges.size() != y.edges.size()) {
      return false;
    }
    for (size_t e = 0; e < x.edges.size(); ++e) {
      if (x.edges[e].link != y.edges[e].link || x.edges[e].stage != y.edges[e].stage) {
        return false;
      }
    }
  }
  return true;
}

bool SameOps(const CompiledPlan& a, const CompiledPlan& b) {
  if (a.num_stages != b.num_stages || a.ops.size() != b.ops.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].link != b.ops[i].link || a.ops[i].stage != b.ops[i].stage ||
        a.ops[i].substage != b.ops[i].substage || a.ops[i].vertices != b.ops[i].vertices) {
      return false;
    }
  }
  return true;
}

class PlannerConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PlannerConformanceTest, ProducesValidPlans) {
  for (const Workload& w : {MakeWorkload(8), MakeWorkload(4, 2, 3)}) {
    auto planner = MakePlanner(GetParam(), PlannerOptions{});
    ASSERT_TRUE(planner.ok());
    auto plan = (*planner)->PlanClasses(w.classes, w.topo, 1024);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->planner_name, GetParam());
    CommPlan expanded = ExpandClassPlan(*plan, w.classes);
    EXPECT_TRUE(ValidatePlan(expanded, w.relation, w.topo).ok());
    // Cost accounting invariant: the stored estimate replays bit-for-bit.
    EXPECT_EQ(plan->planned_cost_seconds, ReplayClassPlanCost(*plan, w.topo, 1024));
  }
}

TEST_P(PlannerConformanceTest, ClassCompileMatchesExpandedCompile) {
  Workload w = MakeWorkload(8, 1, 7);
  auto planner = MakePlanner(GetParam(), PlannerOptions{});
  ASSERT_TRUE(planner.ok());
  auto plan = (*planner)->PlanClasses(w.classes, w.topo, 1024);
  ASSERT_TRUE(plan.ok());
  CompiledPlan direct = CompilePlan(*plan, w.classes, w.topo);
  CompiledPlan via_expand = CompilePlan(ExpandClassPlan(*plan, w.classes), w.topo);
  EXPECT_TRUE(SameOps(direct, via_expand));
  EXPECT_EQ(direct.planner_name, GetParam());
  EXPECT_TRUE(ValidateCompiledPlan(direct, w.relation, w.topo).ok());
}

TEST_P(PlannerConformanceTest, DeterministicAcrossRuns) {
  Workload w = MakeWorkload(8, 1, 11);
  auto plan_once = [&] {
    auto planner = MakePlanner(GetParam(), PlannerOptions{});
    EXPECT_TRUE(planner.ok());
    auto plan = (*planner)->PlanClasses(w.classes, w.topo, 1024);
    EXPECT_TRUE(plan.ok());
    return std::move(plan).value();
  };
  ClassPlan first = plan_once();
  EXPECT_TRUE(SamePlan(first, plan_once()));
  EXPECT_TRUE(SamePlan(first, plan_once()));
}

TEST_P(PlannerConformanceTest, PlanIoRoundTripPreservesProvenance) {
  Workload w = MakeWorkload(8, 1, 13);
  auto planner = MakePlanner(GetParam(), PlannerOptions{});
  ASSERT_TRUE(planner.ok());
  auto plan = (*planner)->PlanClasses(w.classes, w.topo, 1024);
  ASSERT_TRUE(plan.ok());
  CompiledPlan compiled = CompilePlan(*plan, w.classes, w.topo);
  const std::string path =
      (std::filesystem::temp_directory_path() / ("dgcl_conf_" + GetParam() + ".bin")).string();
  ASSERT_TRUE(SaveCompiledPlan(compiled, w.topo, path).ok());
  auto loaded = LoadCompiledPlan(w.topo, path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->planner_name, GetParam());
  EXPECT_TRUE(SameOps(compiled, *loaded));
}

std::string SafeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string out = info.param;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PlannerConformanceTest,
                         ::testing::ValuesIn(PlannerNames()), SafeName);

TEST(PlannerStrategiesTest, NamesAscending) {
  EXPECT_EQ(PlannerNames(), (std::vector<std::string>{"p2p", "spst", "swap"}));
}

TEST(PlannerStrategiesTest, MakePlannerBuildsEveryNameAndRejectsOthers) {
  for (const std::string& name : PlannerNames()) {
    auto planner = MakePlanner(name, PlannerOptions{});
    ASSERT_TRUE(planner.ok()) << name;
    EXPECT_EQ((*planner)->name(), name);
  }
  for (const char* bad : {"no-such-planner", "auto", ""}) {
    auto planner = MakePlanner(bad, PlannerOptions{});
    EXPECT_EQ(planner.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(planner.status().message().find("p2p, spst, swap"), std::string::npos);
  }
}

TEST(PlannerOptionsTest, ValidateRejectsBadConfigs) {
  PlannerOptions o;
  EXPECT_TRUE(o.Validate().ok());  // default spst

  o.strategy = "";
  Status s = o.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("spst"), std::string::npos);  // lists strategies

  // Unknown names, the removed peer-to-peer alias and the deleted ring and
  // broadcast strategies all fail, naming the input and listing exactly the
  // strategies.
  for (const char* bad :
       {"does-not-exist", "peer-to-peer", "ring", "broadcast-1d", "broadcast-1.5d"}) {
    o.strategy = bad;
    s = o.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.message().find(std::string("\"") + bad + "\""), std::string::npos) << bad;
    EXPECT_NE(s.message().find("strategies: p2p, spst, swap, or \"auto\""),
              std::string::npos)
        << s.message();
  }

  for (const std::string& good : PlannerNames()) {
    o.strategy = good;
    EXPECT_TRUE(o.Validate().ok()) << good;
    EXPECT_FALSE(o.IsAuto());
  }
  o.strategy = "auto";
  EXPECT_TRUE(o.Validate().ok());
  EXPECT_TRUE(o.IsAuto());
}

TEST(AutoSelectTest, PicksSimulatedWinnerAndReportsAllCandidates) {
  Workload w = MakeWorkload(8, 1, 17);
  PlannerOptions o;
  o.strategy = "auto";
  SelectionReport report;
  auto plan = PlanWithStrategy(o, w.classes, w.topo, 1024, &report);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(report.candidates.size(), PlannerNames().size());
  for (size_t i = 0; i < report.candidates.size(); ++i) {
    EXPECT_EQ(report.candidates[i].strategy, PlannerNames()[i]);
  }
  EXPECT_EQ(plan->planner_name, report.selected_strategy);

  double best = 0.0;
  bool found_selected = false;
  for (const PlannerCandidateScore& c : report.candidates) {
    if (c.selected) {
      found_selected = true;
      best = c.simulated_seconds;
      EXPECT_EQ(c.strategy, report.selected_strategy);
    }
  }
  ASSERT_TRUE(found_selected);
  for (const PlannerCandidateScore& c : report.candidates) {
    if (c.planned) {
      EXPECT_GE(c.simulated_seconds, best);
      EXPECT_GT(c.simulated_seconds, 0.0);
    }
  }
  EXPECT_FALSE(report.Table().empty());
}

// The first planned candidate with the least `key`, as a strict-< scan in
// PlannerNames() order.
std::string Argmin(const SelectionReport& report,
                   double PlannerCandidateScore::*key) {
  const PlannerCandidateScore* best = nullptr;
  for (const PlannerCandidateScore& c : report.candidates) {
    if (c.planned && (best == nullptr || c.*key < best->*key)) {
      best = &c;
    }
  }
  return best == nullptr ? "" : best->strategy;
}

// A latency-bound exchange: a sparse graph on two 8-GPU machines at dim 16.
// SPST's relay trees win the bandwidth-only cost model, but every extra
// sub-stage round costs per-op latency in the simulator, where p2p's single
// round wins. Auto must commit the simulated winner.
TEST(AutoSelectTest, CommitsSimulatedWinnerWhenCostModelDisagrees) {
  Workload w = MakeWorkload(8, 2, 23);
  PlannerOptions o;
  o.strategy = "auto";
  SelectionReport report;
  const double bytes = 16 * sizeof(float);
  auto plan = PlanWithStrategy(o, w.classes, w.topo, bytes, &report);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(Argmin(report, &PlannerCandidateScore::planned_cost_seconds), "spst")
      << report.Table();
  ASSERT_EQ(Argmin(report, &PlannerCandidateScore::simulated_seconds), "p2p")
      << report.Table();
  EXPECT_EQ(report.selected_strategy, "p2p") << report.Table();
  EXPECT_EQ(plan->planner_name, "p2p");
}

TEST(AutoSelectTest, ForcedStrategyReportsOneCandidate) {
  Workload w = MakeWorkload(4, 1, 19);
  PlannerOptions o;
  o.strategy = "swap";
  SelectionReport report;
  auto plan = PlanWithStrategy(o, w.classes, w.topo, 1024, &report);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->planner_name, "swap");
  ASSERT_EQ(report.candidates.size(), 1u);
  EXPECT_TRUE(report.candidates[0].selected);
  EXPECT_EQ(report.candidates[0].planned_cost_seconds, plan->planned_cost_seconds);
  EXPECT_EQ(report.candidates[0].simulated_seconds, 0.0);  // only auto simulates
  EXPECT_EQ(report.selected_strategy, "swap");
}

// A non-positive or non-finite embedding size is an InvalidArgument from
// PlanWithStrategy itself, forced or auto, never a CostModel CHECK abort.
TEST(AutoSelectTest, RejectsBadBytesPerUnit) {
  Workload w = MakeWorkload(4, 1, 19);
  for (const char* strategy : {"spst", "auto"}) {
    PlannerOptions o;
    o.strategy = strategy;
    for (double bytes : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
      SelectionReport report;
      auto plan = PlanWithStrategy(o, w.classes, w.topo, bytes, &report);
      EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << strategy << " " << bytes;
      EXPECT_NE(plan.status().message().find("bytes_per_unit"), std::string::npos);
      EXPECT_TRUE(report.candidates.empty());
    }
  }
}

}  // namespace
}  // namespace dgcl
