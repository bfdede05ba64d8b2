// Topology explorer: prints the preset communication topologies, the
// transport each device pair would use, and how the planners route a
// workload across them — a window into §3's analysis.
//
// Build & run:  ./build/examples/topology_explorer

#include <cstdio>

#include "common/table_printer.h"
#include "graph/generators.h"
#include "partition/multilevel.h"
#include "planner/baselines.h"
#include "planner/cost_model.h"
#include "planner/spst.h"
#include "runtime/transport.h"
#include "topology/presets.h"

using namespace dgcl;

namespace {

void PrintTransportMatrix(const Topology& topo) {
  std::printf("transport selection (§6.2) for %u devices:\n   ", topo.num_devices());
  for (DeviceId j = 0; j < topo.num_devices(); ++j) {
    std::printf("%3u", j);
  }
  std::printf("\n");
  for (DeviceId i = 0; i < topo.num_devices(); ++i) {
    std::printf("%3u", i);
    for (DeviceId j = 0; j < topo.num_devices(); ++j) {
      if (i == j) {
        std::printf("  .");
        continue;
      }
      switch (SelectTransport(topo, i, j)) {
        case Transport::kCudaVirtualMemory:
          std::printf("  V");
          break;
        case Transport::kPinnedHostMemory:
          std::printf("  H");
          break;
        case Transport::kNic:
          std::printf("  N");
          break;
      }
    }
    std::printf("\n");
  }
  std::printf("  (V = CUDA virtual memory, H = pinned host memory, N = NIC helper thread)\n\n");
}

void PrintLinkMatrix(const Topology& topo) {
  std::printf("direct-link bottleneck bandwidth (GB/s):\n   ");
  for (DeviceId j = 0; j < topo.num_devices(); ++j) {
    std::printf("%7u", j);
  }
  std::printf("\n");
  for (DeviceId i = 0; i < topo.num_devices(); ++i) {
    std::printf("%3u", i);
    for (DeviceId j = 0; j < topo.num_devices(); ++j) {
      if (i == j) {
        std::printf("      .");
      } else {
        std::printf("%7.2f", topo.LinkBottleneckGBps(topo.LinkBetween(i, j)));
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void ComparePlanners(const Topology& topo, const char* name) {
  Rng rng(5);
  CsrGraph graph = GenerateRmat({.scale = 11, .num_edges = 20000}, rng);
  MultilevelPartitioner metis;
  auto rel = BuildCommRelation(graph, *metis.Partition(graph, topo.num_devices()));
  const double bytes = 1024.0;
  TablePrinter table({"Planner", "stages", "link traversals", "cost (ms)"});
  SpstPlanner spst;
  PeerToPeerPlanner p2p;
  SwapPlanner swap;
  for (Planner* planner : std::initializer_list<Planner*>{&spst, &p2p, &swap}) {
    auto plan = planner->Plan(*rel, topo, bytes);
    if (!plan.ok()) {
      table.AddRow({planner->name(), "n/a", "n/a", "n/a"});
      continue;
    }
    table.AddRow({planner->name(), TablePrinter::FmtInt(plan->NumStages()),
                  TablePrinter::FmtInt(static_cast<long long>(PlanTotalTraffic(*plan))),
                  TablePrinter::Fmt(EvaluatePlanCost(*plan, topo, bytes) * 1e3, 3)});
  }
  std::printf("%s\n", table.Render(std::string("planner comparison on ") + name).c_str());
}

}  // namespace

int main() {
  std::printf("=== 8-GPU DGX-1-like machine (Figure 3) ===\n\n");
  Topology dgx = BuildPaperTopology(8);
  std::printf("%s\n", dgx.ToString().c_str());
  PrintLinkMatrix(dgx);
  PrintTransportMatrix(dgx);
  ComparePlanners(dgx, "DGX-1 (8 GPUs)");

  std::printf("=== 8-GPU PCIe-only server (second configuration) ===\n\n");
  Topology pcie = BuildPaperTopology(8, /*nvlink=*/false);
  PrintLinkMatrix(pcie);
  ComparePlanners(pcie, "PCIe-only (8 GPUs)");

  std::printf("=== two machines, 16 GPUs over IB ===\n\n");
  Topology cluster = BuildPaperTopology(16);
  PrintTransportMatrix(cluster);
  ComparePlanners(cluster, "2x8 GPUs over IB");
  return 0;
}
