// Extending DGCL: a hand-built topology plus a user-defined planner.
//
// Demonstrates the two extension points a downstream system would use:
//  * Topology construction from scratch (devices, physical connections,
//    links) for hardware the presets do not cover — here a 4-GPU ring with
//    one slow crossbar;
//  * the Planner interface: a custom "hub" planner that routes every
//    transfer through device 0, validated and executed with the same
//    machinery as SPST.
//
// Build & run:  ./build/examples/custom_strategy

#include <bit>
#include <cstdio>

#include "comm/compiled_plan.h"
#include "graph/generators.h"
#include "planner/baselines.h"
#include "planner/cost_model.h"
#include "planner/spst.h"
#include "runtime/allgather_engine.h"

using namespace dgcl;

namespace {

// 4 GPUs in an NVLink ring (0-1-2-3-0) plus slow PCIe pairwise fallbacks.
Topology BuildRingTopology() {
  Topology topo;
  for (uint32_t g = 0; g < 4; ++g) {
    topo.AddDevice({"gpu" + std::to_string(g), 0, 0, 0});
  }
  // Dedicated PCIe lanes per GPU for the crossbar fallback.
  std::vector<ConnId> tx;
  std::vector<ConnId> rx;
  for (uint32_t g = 0; g < 4; ++g) {
    tx.push_back(topo.AddConnection({"pcie.tx" + std::to_string(g), LinkType::kPcie, 0.0}));
    rx.push_back(topo.AddConnection({"pcie.rx" + std::to_string(g), LinkType::kPcie, 0.0}));
  }
  for (uint32_t g = 0; g < 4; ++g) {
    uint32_t next = (g + 1) % 4;
    ConnId fwd = topo.AddConnection(
        {"nv" + std::to_string(g) + std::to_string(next) + ".f", LinkType::kNvLink1, 0.0});
    ConnId rev = topo.AddConnection(
        {"nv" + std::to_string(g) + std::to_string(next) + ".r", LinkType::kNvLink1, 0.0});
    (void)topo.AddLink(g, next, {fwd});
    (void)topo.AddLink(next, g, {rev});
  }
  // Non-adjacent pairs fall back to the PCIe crossbar.
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      if (i != j && topo.LinkBetween(i, j) == kInvalidId) {
        (void)topo.AddLink(i, j, {tx[i], rx[j]});
      }
    }
  }
  return topo;
}

// Every vertex goes source -> hub (device 0) -> destinations. Deliberately
// naive; shows the Planner contract (class trees rooted at the source —
// all vertices of a (source, dest_mask) class share one tree).
class HubPlanner final : public Planner {
 public:
  Result<ClassPlan> PlanClasses(const CommClasses& classes, const Topology& topo,
                                double bytes_per_unit) override {
    (void)bytes_per_unit;
    ClassPlan plan;
    plan.num_devices = classes.num_devices;
    for (uint32_t c = 0; c < classes.classes.size(); ++c) {
      const CommClass& cls = classes.classes[c];
      ClassTree tree;
      tree.class_id = c;
      tree.first = 0;
      tree.count = static_cast<uint32_t>(cls.vertices.size());
      const uint32_t src = cls.source;
      DeviceMask remaining = cls.mask;
      uint32_t fanout_stage = 0;
      if (src != 0) {
        if ((remaining >> 0) & 1) {
          remaining &= ~DeviceMask{1};  // hub itself is a destination
        }
        tree.edges.push_back(TreeEdge{topo.LinkBetween(src, 0), 0});
        fanout_stage = 1;
      }
      while (remaining != 0) {
        uint32_t d = static_cast<uint32_t>(std::countr_zero(remaining));
        remaining &= remaining - 1;
        if (d == src) {
          continue;
        }
        tree.edges.push_back(TreeEdge{topo.LinkBetween(fanout_stage == 0 ? src : 0, d),
                                      fanout_stage});
      }
      plan.trees.push_back(std::move(tree));
    }
    return plan;
  }
  std::string name() const override { return "hub"; }
};

}  // namespace

int main() {
  Topology topo = BuildRingTopology();
  std::printf("%s\n", topo.ToString().c_str());

  Rng rng(3);
  CsrGraph graph = GenerateRmat({.scale = 10, .num_edges = 6000}, rng);
  HashPartitioner hash;
  auto rel = BuildCommRelation(graph, *hash.Partition(graph, 4));

  const double bytes = 2048.0;
  SpstPlanner spst;
  PeerToPeerPlanner p2p;
  HubPlanner hub;
  for (Planner* planner : std::initializer_list<Planner*>{&spst, &p2p, &hub}) {
    auto plan = planner->Plan(*rel, topo, bytes);
    if (!plan.ok()) {
      std::printf("%-12s: planning failed: %s\n", planner->name().c_str(),
                  plan.status().ToString().c_str());
      continue;
    }
    Status valid = ValidatePlan(*plan, *rel, topo);
    const double cost_ms = EvaluatePlanCost(*plan, topo, bytes) * 1e3;
    // Execute on the threaded runtime to prove the plan actually delivers.
    CompiledPlan compiled = CompilePlan(*plan, topo);
    AssignBackwardSubstages(compiled);
    auto engine = AllgatherEngine::Create(*rel, compiled, topo);
    std::vector<EmbeddingMatrix> local;
    for (uint32_t d = 0; d < 4; ++d) {
      local.push_back(EmbeddingMatrix::Zero(
          static_cast<uint32_t>(rel->local_vertices[d].size()), 4));
    }
    bool executed = engine.ok() && engine->Forward(local).ok();
    std::printf("%-12s: %u stages, cost %7.3f ms, validate=%s, runtime=%s\n",
                planner->name().c_str(), plan->NumStages(), cost_ms,
                valid.ok() ? "OK" : valid.ToString().c_str(), executed ? "OK" : "FAILED");
  }
  std::printf("\nThe hub plan is valid and executable but costly — the Planner interface\n"
              "lets you try such strategies without touching the runtime.\n");
  return 0;
}
