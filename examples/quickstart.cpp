// Quickstart: the end-to-end DGCL workflow of §4.2 (Listing 1) in C++.
//
//   1. Build a communication topology (a simulated 8-GPU DGX-1 here).
//   2. Init the DGCL context.
//   3. BuildCommInfo: partition the graph, plan communication with SPST,
//      compile send/receive tables and arm the runtime.
//   4. DispatchFeatures + GraphAllgather: every device ends up with its
//      local and required remote embeddings, moved by the threaded runtime
//      with the decentralized flag protocol.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "dgcl/dgcl.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "planner/baselines.h"
#include "topology/presets.h"

using namespace dgcl;

int main() {
  // A synthetic power-law graph standing in for the user's data.
  Rng rng(7);
  CsrGraph graph = GenerateRmat({.scale = 12, .num_edges = 40000}, rng);
  std::printf("input graph: %s\n", ComputeStats(graph).ToString().c_str());

  // init(): an 8-GPU single-machine topology (NVLink cube mesh + PCIe/QPI).
  auto ctx = DgclContext::Init(BuildPaperTopology(8));
  if (!ctx.ok()) {
    std::printf("init failed: %s\n", ctx.status().ToString().c_str());
    return 1;
  }

  // buildCommInfo(graph, topology).
  if (Status s = ctx->BuildCommInfo(graph); !s.ok()) {
    std::printf("buildCommInfo failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // Everything the pipeline produced is bundled on artifacts().
  const PlanArtifacts& artifacts = ctx->artifacts();
  const CommRelation& rel = artifacts.relation;
  std::printf("communication relation: %llu vertex transfers across %u devices\n",
              static_cast<unsigned long long>(rel.TotalTransfers()), rel.num_devices);
  std::printf("SPST plan: %u stages, %zu transfer ops, %llu bytes of send/recv tables\n",
              artifacts.compiled.num_stages, artifacts.compiled.ops.size(),
              static_cast<unsigned long long>(artifacts.compiled.TableBytes()));

  // How much better is the plan than naive peer-to-peer, under the cost model?
  PeerToPeerPlanner p2p;
  auto p2p_plan = p2p.PlanClasses(artifacts.classes, ctx->topology(), 1024);
  if (p2p_plan.ok()) {
    const double spst_ms = artifacts.class_plan.planned_cost_seconds * 1e3;
    const double p2p_ms = p2p_plan->planned_cost_seconds * 1e3;
    std::printf("planned allgather cost: SPST %.3f ms vs peer-to-peer %.3f ms (%.1fx)\n",
                spst_ms, p2p_ms, p2p_ms / spst_ms);
  }

  // dispatch_features + graphAllgather on real data.
  const uint32_t dim = 16;
  EmbeddingMatrix features = EmbeddingMatrix::Zero(graph.num_vertices(), dim);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    features.Row(v)[0] = static_cast<float>(v);  // recognizable payload
  }
  auto local = ctx->DispatchFeatures(features);
  auto slots = ctx->GraphAllgather(*local);
  if (!slots.ok()) {
    std::printf("graphAllgather failed: %s\n", slots.status().ToString().c_str());
    return 1;
  }

  // Verify delivery: every device must now hold its remote embeddings.
  uint64_t verified = 0;
  for (uint32_t d = 0; d < rel.num_devices; ++d) {
    const auto& locals = rel.local_vertices[d];
    const auto& remotes = rel.remote_vertices[d];
    for (uint32_t i = 0; i < remotes.size(); ++i) {
      if ((*slots)[d].Row(locals.size() + i)[0] != static_cast<float>(remotes[i])) {
        std::printf("delivery mismatch on device %u!\n", d);
        return 1;
      }
      ++verified;
    }
  }
  std::printf("graphAllgather delivered %llu remote embeddings correctly on all devices\n",
              static_cast<unsigned long long>(verified));
  return 0;
}
