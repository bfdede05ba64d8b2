// Ablations of the SPST design choices called out in §5.2 (not a paper
// table; see DESIGN.md):
//  * vertex-order shuffling on/off,
//  * tree-depth cap 1 (no relaying) / 2 / 4,
//  * per-vertex trees (SPST) vs one-shot direct sends (P2P).

#include <cstdio>

#include "bench_util.h"
#include "planner/baselines.h"
#include "planner/cost_model.h"
#include "planner/spst.h"

namespace dgcl {
namespace {

double PlanCostMs(Planner& planner, const CommRelation& rel, const Topology& topo,
                  double bytes) {
  auto plan = planner.Plan(rel, topo, bytes);
  if (!plan.ok()) {
    return -1.0;
  }
  return EvaluatePlanCost(*plan, topo, bytes) * 1e3;
}

void RunDataset(DatasetId id) {
  auto bundle = bench::MakeSimulator(id, 8, GnnModel::kGcn);
  if (!bundle.ok()) {
    return;
  }
  const CommRelation& rel = (*bundle)->sim().relation();
  const Topology& topo = (*bundle)->topology;
  const double bytes =
      bench::BenchDataset(id).feature_dim * 4.0 * bench::InverseScale(id);

  TablePrinter table({"Variant", "plan cost (ms)", "vs default"});
  SpstPlanner spst_default;
  const double base = PlanCostMs(spst_default, rel, topo, bytes);
  auto add = [&](const std::string& name, double cost) {
    table.AddRow({name, TablePrinter::Fmt(cost, 2),
                  cost >= 0 ? TablePrinter::Fmt(cost / base, 2) + "x" : "n/a"});
  };
  add("SPST (default: shuffle, depth<=4)", base);

  SpstOptions no_shuffle;
  no_shuffle.shuffle = false;
  SpstPlanner spst_no_shuffle(no_shuffle);
  add("SPST without vertex shuffling", PlanCostMs(spst_no_shuffle, rel, topo, bytes));

  for (uint32_t depth : {1u, 2u}) {
    SpstOptions capped;
    capped.max_tree_depth = depth;
    SpstPlanner spst_capped(capped);
    add("SPST depth cap " + std::to_string(depth) + (depth == 1 ? " (no relaying)" : ""),
        PlanCostMs(spst_capped, rel, topo, bytes));
  }

  PeerToPeerPlanner p2p;
  add("Peer-to-peer (direct links)", PlanCostMs(p2p, rel, topo, bytes));

  std::printf("%s\n", table.Render("(" + bench::BenchDataset(id).name + ", 8 GPUs)").c_str());
}

}  // namespace
}  // namespace dgcl

int main() {
  dgcl::bench::PrintHeader("Ablation: SPST design choices (cost-model ms, lower is better)");
  dgcl::RunDataset(dgcl::DatasetId::kReddit);
  dgcl::RunDataset(dgcl::DatasetId::kWebGoogle);
  std::printf(
      "Expected: relaying drives the win: depth cap 2 recovers nearly all of depth\n"
      "cap 1's excess. Shuffling depends on the graph: it pays on Reddit and costs\n"
      "a little on Web-Google.\n");
  return 0;
}
