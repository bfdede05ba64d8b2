#include "sim/network_sim.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "planner/baselines.h"
#include "planner/spst.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

CompiledPlan CompileFor(const CommRelation& rel, const Topology& topo, Planner& planner) {
  return CompilePlan(*planner.Plan(rel, topo, 1024), topo);
}

CommRelation SingleFlowRelation(uint32_t num_devices, uint32_t src, uint32_t dst, uint32_t n) {
  CommRelation rel;
  rel.num_devices = num_devices;
  rel.source.assign(n, src);
  rel.dest_mask.assign(n, DeviceMask{1} << dst);
  rel.local_vertices.resize(num_devices);
  rel.remote_vertices.resize(num_devices);
  for (VertexId v = 0; v < n; ++v) {
    rel.local_vertices[src].push_back(v);
    rel.remote_vertices[dst].push_back(v);
  }
  return rel;
}

TEST(NetworkSimTest, SingleFlowMatchesBandwidth) {
  Topology topo = BuildPaperTopology(2);  // NV1 between the pair
  CommRelation rel = SingleFlowRelation(2, 0, 1, 1000);
  PeerToPeerPlanner p2p;
  CompiledPlan plan = CompileFor(rel, topo, p2p);
  NetworkSimOptions opts;
  opts.bytes_per_unit = 1024.0;
  opts.per_op_latency_s = 0.0;
  NetworkSimResult result = SimulateTransfer(plan, topo, opts);
  EXPECT_NEAR(result.total_seconds, 1000 * 1024.0 / 24.22e9, 1e-12);
}

TEST(NetworkSimTest, LatencyAddsPerRound) {
  Topology topo = BuildPaperTopology(2);
  CommRelation rel = SingleFlowRelation(2, 0, 1, 10);
  PeerToPeerPlanner p2p;
  CompiledPlan plan = CompileFor(rel, topo, p2p);
  NetworkSimOptions opts;
  opts.bytes_per_unit = 1024.0;
  opts.per_op_latency_s = 1e-3;
  NetworkSimResult result = SimulateTransfer(plan, topo, opts);
  EXPECT_GT(result.total_seconds, 1e-3);
  EXPECT_LT(result.total_seconds, 1.1e-3);
}

TEST(NetworkSimTest, FairSharingOnSharedHop) {
  // Two equal flows crossing the same QPI finish together in 2x single time.
  Topology topo = BuildPaperTopology(8);
  std::vector<LinkId> links = {topo.LinkBetween(0, 5), topo.LinkBetween(2, 5)};
  std::vector<double> bytes = {1e9, 1e9};
  auto completions = SimulateConcurrentFlows(topo, links, bytes);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 2.0 / 9.56, 1e-6);
  EXPECT_NEAR(completions[1], 2.0 / 9.56, 1e-6);
}

TEST(NetworkSimTest, EarlyFinisherReleasesBandwidth) {
  // A short and a long flow share the QPI: the short one finishes, then the
  // long one speeds up — total < serialized, > fair-share-forever.
  Topology topo = BuildPaperTopology(8);
  std::vector<LinkId> links = {topo.LinkBetween(0, 5), topo.LinkBetween(2, 5)};
  std::vector<double> bytes = {0.5e9, 2e9};
  auto completions = SimulateConcurrentFlows(topo, links, bytes);
  const double bw = 9.56e9;
  // Both share until the short one finishes at t1 = 0.5e9/(bw/2) = 1e9/bw;
  // the long one then runs at full bandwidth: t2 = t1 + 1.5e9/bw = 2.5e9/bw.
  EXPECT_NEAR(completions[0], 1e9 / bw, 1e-6);
  EXPECT_NEAR(completions[1], 2.5e9 / bw, 1e-6);
}

TEST(NetworkSimTest, DisjointFlowsRunAtFullSpeed) {
  Topology topo = BuildPaperTopology(8);
  std::vector<LinkId> links = {topo.LinkBetween(0, 1), topo.LinkBetween(2, 3)};
  std::vector<double> bytes = {1e9, 1e9};
  auto completions = SimulateConcurrentFlows(topo, links, bytes);
  EXPECT_NEAR(completions[0], 1.0 / 24.22, 1e-6);
  EXPECT_NEAR(completions[1], 1.0 / 24.22, 1e-6);
}

TEST(NetworkSimTest, Table3QpiContentionShape) {
  // Paper Table 3: attainable per-GPU bandwidth over QPI for 1/2/3 senders.
  Topology topo = BuildPaperTopology(8);
  const double gb = 1e9;
  for (uint32_t senders = 1; senders <= 3; ++senders) {
    std::vector<LinkId> links;
    std::vector<double> bytes;
    const DeviceId srcs[] = {0, 2, 3};  // GPUs without NVLink to GPU 5
    for (uint32_t i = 0; i < senders; ++i) {
      links.push_back(topo.LinkBetween(srcs[i], 5));
      bytes.push_back(gb);
    }
    auto completions = SimulateConcurrentFlows(topo, links, bytes);
    const double attainable = gb / completions[0] / 1e9;  // GB/s per GPU
    EXPECT_NEAR(attainable, 9.56 / senders, 0.01);
  }
}

TEST(NetworkSimTest, StagesSerialize) {
  Rng rng(5);
  CsrGraph g = GenerateErdosRenyi(80, 240, rng);
  Topology topo = BuildPaperTopology(8);
  HashPartitioner hash;
  CommRelation rel = *BuildCommRelation(g, *hash.Partition(g, 8));
  SpstPlanner spst;
  CompiledPlan plan = CompileFor(rel, topo, spst);
  NetworkSimOptions opts;
  opts.per_op_latency_s = 0.0;
  NetworkSimResult result = SimulateTransfer(plan, topo, opts);
  double stage_sum = 0.0;
  for (double s : result.stage_seconds) {
    stage_sum += s;
  }
  EXPECT_NEAR(result.total_seconds, stage_sum, 1e-12);
}

TEST(NetworkSimTest, BackwardAtomicSlowerThanNonAtomic) {
  Rng rng(6);
  CsrGraph g = GenerateErdosRenyi(100, 500, rng);
  Topology topo = BuildPaperTopology(8);
  HashPartitioner hash;
  CommRelation rel = *BuildCommRelation(g, *hash.Partition(g, 8));
  SpstPlanner spst;
  CompiledPlan plan = CompileFor(rel, topo, spst);
  AssignBackwardSubstages(plan);
  NetworkSimOptions opts;
  opts.per_op_latency_s = 0.0;
  opts.non_atomic = true;
  double non_atomic = SimulateTransfer(plan, topo, opts, PassDirection::kBackward).total_seconds;
  opts.non_atomic = false;
  double atomic = SimulateTransfer(plan, topo, opts, PassDirection::kBackward).total_seconds;
  EXPECT_GT(atomic, non_atomic);
}

TEST(NetworkSimTest, CostScalesWithBytesPerUnit) {
  Rng rng(7);
  CsrGraph g = GenerateErdosRenyi(60, 200, rng);
  Topology topo = BuildPaperTopology(4);
  HashPartitioner hash;
  CommRelation rel = *BuildCommRelation(g, *hash.Partition(g, 4));
  PeerToPeerPlanner p2p;
  CompiledPlan plan = CompileFor(rel, topo, p2p);
  NetworkSimOptions opts;
  opts.per_op_latency_s = 0.0;
  opts.bytes_per_unit = 512;
  double t1 = SimulateTransfer(plan, topo, opts).total_seconds;
  opts.bytes_per_unit = 2048;
  double t4 = SimulateTransfer(plan, topo, opts).total_seconds;
  EXPECT_NEAR(t4 / t1, 4.0, 1e-6);
}

TEST(NetworkSimTest, ConnBusyTimeIsBounded) {
  Rng rng(8);
  CsrGraph g = GenerateErdosRenyi(60, 200, rng);
  Topology topo = BuildPaperTopology(8);
  HashPartitioner hash;
  CommRelation rel = *BuildCommRelation(g, *hash.Partition(g, 8));
  SpstPlanner spst;
  CompiledPlan plan = CompileFor(rel, topo, spst);
  NetworkSimOptions opts;
  opts.per_op_latency_s = 0.0;
  NetworkSimResult result = SimulateTransfer(plan, topo, opts);
  for (double busy : result.conn_busy_seconds) {
    EXPECT_LE(busy, result.total_seconds + 1e-9);
  }
}

TEST(NetworkSimTest, BackwardUsesReverseLinks) {
  // Forward 0->1 loads the fwd NVLink connection; backward must load rev.
  Topology topo = BuildPaperTopology(2);
  CommRelation rel = SingleFlowRelation(2, 0, 1, 100);
  PeerToPeerPlanner p2p;
  CompiledPlan plan = CompileFor(rel, topo, p2p);
  NetworkSimOptions opts;
  opts.per_op_latency_s = 0.0;
  NetworkSimResult fwd = SimulateTransfer(plan, topo, opts, PassDirection::kForward);
  NetworkSimResult bwd = SimulateTransfer(plan, topo, opts, PassDirection::kBackward);
  ConnId fwd_conn = topo.link(topo.LinkBetween(0, 1)).hops[0];
  ConnId rev_conn = topo.link(topo.LinkBetween(1, 0)).hops[0];
  EXPECT_GT(fwd.conn_busy_seconds[fwd_conn], 0.0);
  EXPECT_DOUBLE_EQ(fwd.conn_busy_seconds[rev_conn], 0.0);
  EXPECT_GT(bwd.conn_busy_seconds[rev_conn], 0.0);
  EXPECT_DOUBLE_EQ(bwd.conn_busy_seconds[fwd_conn], 0.0);
}

}  // namespace
}  // namespace dgcl
