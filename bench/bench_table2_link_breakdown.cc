// Table 2: time peer-to-peer communication spends on NVLink vs the other
// (slow) links for one GCN-layer exchange with 8 GPUs.
//
// The paper's point: the NVLink share finishes an order of magnitude sooner,
// so P2P's makespan is dictated by the slow links it needlessly uses.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "partition/multilevel.h"
#include "planner/baselines.h"
#include "planner/spst.h"
#include "runtime/allgather_engine.h"
#include "sim/network_sim.h"

namespace dgcl {
namespace {

// Per-transport breakdown of one planned exchange: which §6.2 transport each
// device pair resolved to, and how much traffic rides it. Built on the
// runtime's ConnectionTable, then again with EngineOptions::transport_overrides
// forcing every within-machine pair onto the pinned-host path — the
// forced-transport ablation the new API exists for.
void RunTransportBreakdown() {
  bench::PrintHeader(
      "Transport breakdown (§6.2): SelectTransport vs forced pinned-host, SPST plan, 2x8 GPUs");
  Rng rng(71);
  CsrGraph graph = GenerateRmat({.scale = 12, .num_edges = 30000}, rng);
  Topology topo = BuildPaperTopology(16);
  MultilevelPartitioner metis;
  CommRelation rel =
      std::move(BuildCommRelation(graph, *metis.Partition(graph, 16))).value();
  SpstPlanner spst;
  CompiledPlan plan = CompilePlan(*spst.Plan(rel, topo, 64), topo);
  AssignBackwardSubstages(plan);

  // Within-machine pairs forced onto pinned-host (a cross-machine pair must
  // stay on the NIC — ValidateTransportOverrides enforces the physics).
  std::vector<TransportOverride> force_host;
  for (const TransferOp& op : plan.ops) {
    if (topo.device(op.src).machine == topo.device(op.dst).machine) {
      force_host.push_back({op.src, op.dst, Transport::kPinnedHostMemory});
    }
  }

  constexpr uint32_t kDim = 16;
  std::vector<EmbeddingMatrix> local;
  for (uint32_t d = 0; d < rel.num_devices; ++d) {
    local.push_back(EmbeddingMatrix::Zero(
        static_cast<uint32_t>(rel.local_vertices[d].size()), kDim));
  }

  TablePrinter table({"Config", "Transport", "Pairs", "Ops", "MB moved"});
  std::vector<std::vector<EmbeddingMatrix>> outputs;
  struct Config {
    const char* name;
    std::vector<TransportOverride> overrides;
  };
  for (Config& config : std::vector<Config>{{"selected", {}}, {"forced pinned-host", force_host}}) {
    EngineOptions options;
    options.transport_overrides = std::move(config.overrides);
    auto engine = AllgatherEngine::Create(rel, plan, topo, options);
    if (!engine.ok()) {
      std::printf("engine setup failed: %s\n", engine.status().ToString().c_str());
      return;
    }
    auto out = engine->Forward(local);
    if (!out.ok()) {
      std::printf("forward failed: %s\n", out.status().ToString().c_str());
      return;
    }
    outputs.push_back(*std::move(out));
    for (Transport t : {Transport::kCudaVirtualMemory, Transport::kPinnedHostMemory,
                        Transport::kNic}) {
      uint64_t pairs = 0;
      uint64_t ops = 0;
      double bytes = 0.0;
      const ConnectionTable& connections = engine->connections();
      for (size_t i = 0; i < connections.size(); ++i) {
        pairs += connections.connection(i).transport() == t ? 1 : 0;
      }
      for (uint32_t op_id = 0; op_id < plan.ops.size(); ++op_id) {
        if (connections.ForOp(op_id).transport() == t) {
          ++ops;
          bytes += static_cast<double>(plan.ops[op_id].vertices.size()) * kDim * sizeof(float);
        }
      }
      table.AddRow({config.name, TransportName(t), TablePrinter::FmtInt(pairs),
                    TablePrinter::FmtInt(ops), TablePrinter::Fmt(bytes / 1e6, 2)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  bool identical = outputs.size() == 2 && outputs[0].size() == outputs[1].size();
  if (identical) {
    for (size_t d = 0; d < outputs[0].size(); ++d) {
      identical = identical && outputs[0][d].data == outputs[1][d].data;
    }
  }
  std::printf(
      "Forcing the transport re-labels the channel, never the data: outputs %s.\n",
      identical ? "bit-identical" : "DIFFER (bug!)");
}

void Run() {
  bench::PrintHeader("Table 2: P2P time (ms) on NVLink vs other links, one GCN layer, 8 GPUs");
  TablePrinter table({"Dataset", "NVLink", "Others", "ratio"});
  for (DatasetId id :
       {DatasetId::kWebGoogle, DatasetId::kReddit, DatasetId::kWikiTalk}) {
    auto bundle = bench::MakeSimulator(id, 8, GnnModel::kGcn);
    if (!bundle.ok()) {
      continue;
    }
    PeerToPeerPlanner p2p;
    NetworkSimResult net;
    auto seconds = (*bundle)->sim().SimulateAllgatherSeconds(
        p2p, bench::BenchDataset(id).feature_dim, 1.0, nullptr, &net);
    if (!seconds.ok()) {
      continue;
    }
    const Topology& topo = (*bundle)->topology;
    const double nv = std::max(net.TypeBusySeconds(topo, LinkType::kNvLink1),
                               net.TypeBusySeconds(topo, LinkType::kNvLink2)) *
                      1e3;
    const double others = std::max({net.TypeBusySeconds(topo, LinkType::kPcie),
                                    net.TypeBusySeconds(topo, LinkType::kQpi),
                                    net.TypeBusySeconds(topo, LinkType::kInfiniBand)}) *
                          1e3;
    table.AddRow({bench::BenchDataset(id).name, TablePrinter::Fmt(nv, 2),
                  TablePrinter::Fmt(others, 2), TablePrinter::Fmt(others / nv, 1) + "x"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Paper Table 2 (ms): Web-Google 0.99/6.20, Reddit 1.70/18.1, Wiki-Talk 1.39/6.13 —\n"
      "slow links dominate P2P by 4-10x.\n");
}

}  // namespace
}  // namespace dgcl

int main() {
  dgcl::Run();
  dgcl::RunTransportBreakdown();
  return 0;
}
