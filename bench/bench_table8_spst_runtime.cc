// Table 8: wall-clock running time of the SPST planning algorithm for each
// dataset and GPU count (single-threaded, as in the paper), extended with the
// class-batching comparison: default batched planning (chunked destination-set
// equivalence classes) vs the seed per-vertex planner (max_class_units = 0).
//
// Uses google-benchmark for the timing harness; the summary tables at the end
// mirror the paper's layout and report the batched-vs-per-vertex speedup and
// plan-cost delta. Pass `--json <path>` to also write the per-(dataset, gpus)
// records machine-readably (scripts/reproduce.sh writes BENCH_table8.json).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "partition/multilevel.h"
#include "planner/cost_model.h"
#include "planner/spst.h"

namespace dgcl {
namespace {

const CommRelation& RelationFor(DatasetId id, uint32_t gpus) {
  static std::map<std::pair<DatasetId, uint32_t>, CommRelation> cache;
  auto key = std::make_pair(id, gpus);
  auto it = cache.find(key);
  if (it == cache.end()) {
    MultilevelPartitioner metis;
    auto parts = metis.Partition(bench::BenchDataset(id).graph, gpus);
    auto rel = BuildCommRelation(bench::BenchDataset(id).graph, *parts);
    it = cache.emplace(key, std::move(rel).value()).first;
  }
  return it->second;
}

const CommClasses& ClassesFor(DatasetId id, uint32_t gpus) {
  static std::map<std::pair<DatasetId, uint32_t>, CommClasses> cache;
  auto key = std::make_pair(id, gpus);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, BuildCommClasses(RelationFor(id, gpus))).first;
  }
  return it->second;
}

SpstOptions PerVertexOptions() {
  SpstOptions opts;
  opts.max_class_units = 0;  // seed semantics: one tree per vertex
  return opts;
}

// One measured planning run: wall time of BuildCommClasses + PlanClasses
// (what an end-to-end BuildCommInfo pays for planning) plus the cost-model
// estimate of the expanded per-vertex plan.
struct PlanMeasurement {
  bool ok = false;
  double planning_ms = 0.0;
  double plan_cost_ms = 0.0;
};

PlanMeasurement MeasurePlanning(const CommRelation& rel, const Topology& topo, double bytes,
                                const SpstOptions& options) {
  PlanMeasurement m;
  WallTimer timer;
  CommClasses classes = BuildCommClasses(rel);
  SpstPlanner planner(options);
  auto class_plan = planner.PlanClasses(classes, topo, bytes);
  if (!class_plan.ok()) {
    return m;
  }
  m.planning_ms = timer.ElapsedSeconds() * 1e3;
  CommPlan plan = ExpandClassPlan(*class_plan, classes);
  m.ok = true;
  m.plan_cost_ms = EvaluatePlanCost(plan, topo, bytes) * 1e3;
  return m;
}

void BM_Spst(benchmark::State& state) {
  const DatasetId id = static_cast<DatasetId>(state.range(0));
  const uint32_t gpus = static_cast<uint32_t>(state.range(1));
  const bool batched = state.range(2) != 0;
  const CommRelation& rel = RelationFor(id, gpus);
  Topology topo = BuildPaperTopology(gpus);
  const double bytes = bench::BenchDataset(id).feature_dim * 4.0;
  const SpstOptions options = batched ? SpstOptions{} : PerVertexOptions();
  for (auto _ : state) {
    CommClasses classes = BuildCommClasses(rel);
    SpstPlanner spst(options);
    auto plan = spst.PlanClasses(classes, topo, bytes);
    benchmark::DoNotOptimize(plan);
  }
  state.SetLabel(bench::BenchDataset(id).name + "/" + std::to_string(gpus) + "gpu/" +
                 (batched ? "batched" : "per-vertex"));
  state.counters["vertices_with_dests"] =
      static_cast<double>(rel.VerticesWithDestinations().size());
  state.counters["classes"] = static_cast<double>(ClassesFor(id, gpus).classes.size());
}

void RegisterAll() {
  auto* bench_def = benchmark::RegisterBenchmark("SPST_planning", BM_Spst);
  for (DatasetId id : {DatasetId::kReddit, DatasetId::kComOrkut, DatasetId::kWebGoogle,
                       DatasetId::kWikiTalk}) {
    for (uint32_t gpus : {2u, 4u, 8u, 16u}) {
      for (long batched : {1L, 0L}) {
        bench_def->Args({static_cast<long>(id), static_cast<long>(gpus), batched});
      }
    }
  }
  bench_def->Unit(benchmark::kMillisecond)->Iterations(1);
}

constexpr DatasetId kDatasets[] = {DatasetId::kReddit, DatasetId::kComOrkut,
                                   DatasetId::kWebGoogle, DatasetId::kWikiTalk};
constexpr uint32_t kGpuCounts[] = {2u, 4u, 8u, 16u};

void PrintSummaryTable(const std::optional<std::string>& json_path) {
  bench::PrintHeader("Table 8: SPST planning wall time (batched classes), single thread");
  std::vector<bench::JsonRecord> records;
  TablePrinter table({"GPUs", "Reddit", "Com-Orkut", "Web-Google", "Wiki-Talk"});
  TablePrinter compare({"Dataset", "GPUs", "batched ms", "per-vertex ms", "speedup",
                        "cost delta", "classes", "vertices"});
  for (uint32_t gpus : kGpuCounts) {
    std::vector<std::string> row = {TablePrinter::FmtInt(gpus)};
    for (DatasetId id : kDatasets) {
      const CommRelation& rel = RelationFor(id, gpus);
      Topology topo = BuildPaperTopology(gpus);
      const double bytes = bench::BenchDataset(id).feature_dim * 4.0;
      PlanMeasurement batched = MeasurePlanning(rel, topo, bytes, SpstOptions{});
      PlanMeasurement per_vertex = MeasurePlanning(rel, topo, bytes, PerVertexOptions());
      row.push_back(batched.ok ? TablePrinter::Fmt(batched.planning_ms / 1e3, 3) : "n/a");
      if (!batched.ok || !per_vertex.ok) {
        continue;
      }
      const double speedup =
          batched.planning_ms > 0 ? per_vertex.planning_ms / batched.planning_ms : 0.0;
      const double cost_delta =
          per_vertex.plan_cost_ms > 0
              ? (batched.plan_cost_ms - per_vertex.plan_cost_ms) / per_vertex.plan_cost_ms
              : 0.0;
      const CommClasses& classes = ClassesFor(id, gpus);
      // With no classes both planners plan nothing, and their ratio is noise.
      const bool empty = classes.classes.empty();
      compare.AddRow({bench::BenchDataset(id).name, TablePrinter::FmtInt(gpus),
                      TablePrinter::Fmt(batched.planning_ms, 2),
                      TablePrinter::Fmt(per_vertex.planning_ms, 2),
                      empty ? "—" : TablePrinter::Fmt(speedup, 1) + "x",
                      TablePrinter::Fmt(cost_delta * 100.0, 2) + "%",
                      TablePrinter::FmtInt(classes.classes.size()),
                      TablePrinter::FmtInt(rel.VerticesWithDestinations().size())});
      bench::JsonRecord rec;
      rec.AddString("dataset", bench::BenchDataset(id).name);
      rec.AddInt("gpus", gpus);
      rec.AddNumber("planning_ms", batched.planning_ms);
      rec.AddNumber("plan_cost_ms", batched.plan_cost_ms);
      rec.AddNumber("planning_ms_per_vertex", per_vertex.planning_ms);
      rec.AddNumber("plan_cost_ms_per_vertex", per_vertex.plan_cost_ms);
      if (!empty) {
        rec.AddNumber("speedup", speedup);
      }
      rec.AddNumber("cost_delta", cost_delta);
      rec.AddInt("num_classes", classes.classes.size());
      rec.AddInt("num_vertices", rel.VerticesWithDestinations().size());
      records.push_back(std::move(rec));
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.Render("planning wall time (s)").c_str());
  std::printf("%s\n", compare.Render("class batching vs per-vertex planning").c_str());
  std::printf(
      "Paper Table 8 (s, full-size graphs): grows ~linearly with GPUs, seconds to\n"
      "~110s for Com-Orkut at 16 GPUs; our graphs are scale-reduced so absolute\n"
      "numbers are proportionally smaller. Batched class planning plans one tree\n"
      "per class chunk instead of per vertex; \"cost delta\" is the cost-model\n"
      "difference of the resulting plans (positive = batched plan is costlier).\n");
  if (json_path) {
    Status s = bench::WriteJsonRecords(*json_path, records);
    if (s.ok()) {
      std::printf("wrote %zu records to %s\n", records.size(), json_path->c_str());
    } else {
      std::fprintf(stderr, "failed to write %s: %s\n", json_path->c_str(),
                   s.message().c_str());
    }
  }
}

}  // namespace
}  // namespace dgcl

int main(int argc, char** argv) {
  std::optional<std::string> json_path = dgcl::bench::ConsumeJsonFlag(&argc, argv);
  dgcl::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dgcl::PrintSummaryTable(json_path);
  return 0;
}
