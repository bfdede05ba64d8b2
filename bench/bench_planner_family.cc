// Planner-family crossover map: which strategy wins where?
//
// Sweeps dataset density x topology x embedding dim and, per cell, runs the
// "auto" selection once: it plans, compiles and simulates the same workload
// with every strategy and commits the one with the least discrete-event
// NetworkSim allgather time, so the cell's winner is auto's pick. The
// cost-model estimate is reported alongside, and the cost-model pick (its
// argmin) shows where the bandwidth-only model would have chosen otherwise.
// Small embeddings are latency-bound (fewer stages win: p2p),
// large embeddings are contention-bound (SPST's load-aware routing wins) —
// the table makes the crossover explicit, and the JSON records feed
// BENCH_planner_family.json via --json (scripts/reproduce.sh).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

#include "partition/hierarchical.h"
#include "partition/multilevel.h"
#include "sim/planner_select.h"

namespace dgcl {
namespace {

struct TopoCase {
  std::string name;
  Topology topo;
};

std::vector<TopoCase> Topologies() {
  std::vector<TopoCase> cases;
  MachineConfig nvlink;
  nvlink.num_gpus = 8;
  cases.push_back({"8gpu-nvlink", BuildCluster(1, nvlink)});
  MachineConfig pcie = nvlink;
  pcie.nvlink = false;
  cases.push_back({"8gpu-pcie", BuildCluster(1, pcie)});
  MachineConfig half = nvlink;
  half.num_gpus = 8;
  cases.push_back({"16gpu-2machines", BuildCluster(2, half)});
  return cases;
}

// The strategy the cost model ranks first (strict <, so ties go to the
// first name in PlannerNames() order, as auto's do); empty if none planned.
std::string CostModelPick(const SelectionReport& report) {
  const PlannerCandidateScore* best = nullptr;
  for (const PlannerCandidateScore& c : report.candidates) {
    if (c.planned && (best == nullptr || c.planned_cost_seconds < best->planned_cost_seconds)) {
      best = &c;
    }
  }
  return best == nullptr ? "" : best->strategy;
}

// Returns the number of cells whose cost-model pick is not the simulated
// winner; `cells` receives the number of cells scored.
int RunSweep(std::vector<bench::JsonRecord>& records, int& cells) {
  int disagreements = 0;
  for (DatasetId id : {DatasetId::kReddit, DatasetId::kComOrkut, DatasetId::kWebGoogle,
                       DatasetId::kWikiTalk}) {
    const Dataset& dataset = bench::BenchDataset(id);
    for (TopoCase& tc : Topologies()) {
      // One partition + relation per (dataset, topology); every strategy
      // plans the identical class set.
      MultilevelPartitioner metis;
      auto parts = PartitionForTopology(dataset.graph, tc.topo, metis);
      if (!parts.ok()) {
        continue;
      }
      auto rel = BuildCommRelation(dataset.graph, *parts);
      if (!rel.ok()) {
        continue;
      }
      CommClasses classes = BuildCommClasses(*rel);
      for (uint32_t dim : {16u, 256u}) {
        const double bytes = static_cast<double>(dim) * sizeof(float);
        PlannerOptions popts;
        popts.strategy = "auto";
        SelectionReport report;
        if (!PlanWithStrategy(popts, classes, tc.topo, bytes, &report).ok()) {
          continue;  // no strategy can plan this cell
        }
        const std::string& winner = report.selected_strategy;
        const std::string cost_pick = CostModelPick(report);
        ++cells;
        disagreements += cost_pick != winner ? 1 : 0;
        TablePrinter table(
            {"Strategy", "Cost-model ms", "Simulated ms", "Winner", "Cost-model pick"});
        for (const PlannerCandidateScore& c : report.candidates) {
          // Unplanned candidates (e.g. no direct link for p2p) keep zero scores.
          const double cost_ms = c.planned_cost_seconds * 1e3;
          const double sim_ms = c.simulated_seconds * 1e3;
          table.AddRow({c.strategy, c.planned ? TablePrinter::Fmt(cost_ms, 3) : "n/a",
                        c.planned ? TablePrinter::Fmt(sim_ms, 3) : "n/a",
                        c.selected ? "*" : "", c.strategy == cost_pick ? "*" : ""});

          bench::JsonRecord rec;
          rec.AddString("dataset", dataset.name);
          rec.AddString("topology", tc.name);
          rec.AddInt("dim", dim);
          rec.AddString("strategy", c.strategy);
          rec.AddInt("planned", c.planned ? 1 : 0);
          rec.AddNumber("cost_model_ms", cost_ms);
          rec.AddNumber("simulated_ms", sim_ms);
          rec.AddInt("winner", c.selected ? 1 : 0);
          rec.AddString("auto_pick", winner);
          rec.AddString("cost_model_pick", cost_pick);
          records.push_back(std::move(rec));
        }
        std::printf("%s", table.Render(dataset.name + " / " + tc.name + " / dim " +
                                       std::to_string(dim) + "  (auto picks: " + winner +
                                       ")")
                              .c_str());
        std::printf("\n");
      }
    }
  }
  return disagreements;
}

}  // namespace
}  // namespace dgcl

int main(int argc, char** argv) {
  auto json_path = dgcl::bench::ConsumeJsonFlag(&argc, argv);
  auto trace_path = dgcl::bench::ConsumeTraceFlag(&argc, argv);
  dgcl::bench::PrintHeader(
      "Planner family crossover: strategies x datasets x topologies x dims");
  std::vector<dgcl::bench::JsonRecord> records;
  int cells = 0;
  const int disagreements = dgcl::RunSweep(records, cells);
  std::printf(
      "Cells are scored by simulated allgather time, which is also how auto picks,\n"
      "so the starred winner is auto's pick. The cost model's pick differs from it\n"
      "in %d of %d cells: the bandwidth-only model has no per-op latency.\n",
      disagreements, cells);
  if (json_path) {
    dgcl::Status s = dgcl::bench::WriteJsonRecords(*json_path, records);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu records to %s\n", records.size(), json_path->c_str());
  }
  if (trace_path) {
    dgcl::Status s = dgcl::bench::FinishTrace(*trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
