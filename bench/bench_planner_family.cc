// Planner-family crossover map: which strategy wins where?
//
// Sweeps dataset density x topology x embedding dim and, per cell, plans the
// same workload with every strategy (plus the "auto" selection).
// Cells are scored by the discrete-event NetworkSim allgather time of the
// compiled plan; the cost-model estimate is reported alongside so the
// auto-selector's ranking signal can be compared against the simulator.
// Small embeddings are latency-bound (fewer stages win: p2p),
// large embeddings are contention-bound (SPST's load-aware routing wins) —
// the table makes the crossover explicit, and the JSON records feed
// BENCH_planner_family.json via --json (scripts/reproduce.sh).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

#include "comm/compiled_plan.h"
#include "partition/hierarchical.h"
#include "partition/multilevel.h"
#include "sim/network_sim.h"
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

struct CellScore {
  double cost_ms = 0.0;
  double sim_ms = 0.0;
  bool planned = false;
};

void RunSweep(std::vector<bench::JsonRecord>& records) {
  const std::vector<std::string> strategies = PlannerNames();
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
        std::map<std::string, CellScore> scores;
        std::string winner;
        std::string auto_pick;
        for (const std::string& strategy : strategies) {
          PlannerOptions popts;
          popts.strategy = strategy;
          auto plan = PlanWithStrategy(popts, classes, tc.topo, bytes);
          CellScore& cell = scores[strategy];
          if (!plan.ok()) {
            continue;  // e.g. no direct link for p2p on this topology
          }
          cell.planned = true;
          cell.cost_ms = plan->planned_cost_seconds * 1e3;
          CompiledPlan compiled = CompilePlan(*plan, classes, tc.topo);
          NetworkSimOptions net;
          net.bytes_per_unit = bytes;
          cell.sim_ms = SimulateTransfer(compiled, tc.topo, net).total_seconds * 1e3;
          if (winner.empty() || cell.sim_ms < scores[winner].sim_ms) {
            winner = strategy;
          }
        }
        {
          PlannerOptions popts;
          popts.strategy = "auto";
          SelectionReport report;
          auto plan = PlanWithStrategy(popts, classes, tc.topo, bytes, &report);
          if (plan.ok()) {
            auto_pick = report.selected_strategy;
          }
        }
        TablePrinter table({"Strategy", "Cost-model ms", "Simulated ms", "Winner"});
        for (const std::string& strategy : strategies) {
          const CellScore& cell = scores[strategy];
          table.AddRow({strategy,
                        cell.planned ? TablePrinter::Fmt(cell.cost_ms, 3) : "n/a",
                        cell.planned ? TablePrinter::Fmt(cell.sim_ms, 3) : "n/a",
                        strategy == winner ? "*" : ""});

          bench::JsonRecord rec;
          rec.AddString("dataset", dataset.name);
          rec.AddString("topology", tc.name);
          rec.AddInt("dim", dim);
          rec.AddString("strategy", strategy);
          rec.AddInt("planned", cell.planned ? 1 : 0);
          rec.AddNumber("cost_model_ms", cell.cost_ms);
          rec.AddNumber("simulated_ms", cell.sim_ms);
          rec.AddInt("winner", strategy == winner ? 1 : 0);
          rec.AddString("auto_pick", auto_pick);
          records.push_back(std::move(rec));
        }
        std::printf("%s", table.Render(dataset.name + " / " + tc.name + " / dim " +
                                       std::to_string(dim) + "  (auto picks: " +
                                       (auto_pick.empty() ? "-" : auto_pick) + ")")
                              .c_str());
        std::printf("\n");
      }
    }
  }
}

}  // namespace
}  // namespace dgcl

int main(int argc, char** argv) {
  auto json_path = dgcl::bench::ConsumeJsonFlag(&argc, argv);
  auto trace_path = dgcl::bench::ConsumeTraceFlag(&argc, argv);
  dgcl::bench::PrintHeader(
      "Planner family crossover: strategies x datasets x topologies x dims");
  std::vector<dgcl::bench::JsonRecord> records;
  dgcl::RunSweep(records);
  std::printf(
      "Cells are scored by simulated allgather time; the cost model drives the\n"
      "auto-selector, so cells where the starred winner differs from the auto pick\n"
      "bound the fidelity gap between the two estimates.\n");
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
