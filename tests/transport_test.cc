#include "runtime/transport.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "partition/multilevel.h"
#include "planner/spst.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

TEST(TransportTest, SameSocketUsesCudaVm) {
  Topology topo = BuildPaperTopology(8);
  EXPECT_EQ(SelectTransport(topo, 0, 1), Transport::kCudaVirtualMemory);
  EXPECT_EQ(SelectTransport(topo, 2, 3), Transport::kCudaVirtualMemory);
  EXPECT_EQ(SelectTransport(topo, 4, 7), Transport::kCudaVirtualMemory);
}

TEST(TransportTest, CrossSocketUsesPinnedHost) {
  Topology topo = BuildPaperTopology(8);
  EXPECT_EQ(SelectTransport(topo, 0, 5), Transport::kPinnedHostMemory);
  EXPECT_EQ(SelectTransport(topo, 7, 2), Transport::kPinnedHostMemory);
}

TEST(TransportTest, CrossMachineUsesNic) {
  Topology topo = BuildPaperTopology(16);
  EXPECT_EQ(SelectTransport(topo, 0, 8), Transport::kNic);
  EXPECT_EQ(SelectTransport(topo, 15, 3), Transport::kNic);
  // Within machine 1 it is still local transports.
  EXPECT_EQ(SelectTransport(topo, 8, 9), Transport::kCudaVirtualMemory);
  EXPECT_EQ(SelectTransport(topo, 8, 13), Transport::kPinnedHostMemory);
}

TEST(TransportTest, NamesAreStable) {
  EXPECT_STREQ(TransportName(Transport::kCudaVirtualMemory), "cuda-vm");
  EXPECT_STREQ(TransportName(Transport::kPinnedHostMemory), "pinned-host");
  EXPECT_STREQ(TransportName(Transport::kNic), "nic");
}

TEST(TransportTest, ResolveTransportAppliesOverridesLastMatchWins) {
  Topology topo = BuildPaperTopology(8);
  EXPECT_EQ(ResolveTransport(topo, 0, 1, {}), Transport::kCudaVirtualMemory);
  std::vector<TransportOverride> overrides = {
      {0, 1, Transport::kPinnedHostMemory},
      {0, 1, Transport::kNic},  // later entry wins
  };
  EXPECT_EQ(ResolveTransport(topo, 0, 1, overrides), Transport::kNic);
  // Unlisted pairs fall back to the decision table.
  EXPECT_EQ(ResolveTransport(topo, 0, 5, overrides), Transport::kPinnedHostMemory);
}

TEST(TransportTest, OverrideValidationEnforcesThePhysics) {
  Topology topo = BuildPaperTopology(16);
  // Downgrades within a machine are fine (ablations).
  EXPECT_TRUE(ValidateTransportOverrides(
                  topo, std::vector<TransportOverride>{{0, 1, Transport::kPinnedHostMemory}})
                  .ok());
  EXPECT_TRUE(ValidateTransportOverrides(
                  topo, std::vector<TransportOverride>{{0, 5, Transport::kNic}})
                  .ok());
  // A cross-machine pair has no shared memory to ride.
  EXPECT_FALSE(ValidateTransportOverrides(
                   topo, std::vector<TransportOverride>{{0, 8, Transport::kCudaVirtualMemory}})
                   .ok());
  EXPECT_FALSE(ValidateTransportOverrides(
                   topo, std::vector<TransportOverride>{{0, 99, Transport::kNic}})
                   .ok());
  EXPECT_FALSE(ValidateTransportOverrides(
                   topo, std::vector<TransportOverride>{{3, 3, Transport::kNic}})
                   .ok());
}

TEST(TransportTest, OptionValidation) {
  FaultInjection faults;
  EXPECT_TRUE(faults.Validate().ok());
  faults.drop_rate = -0.1;
  EXPECT_FALSE(faults.Validate().ok());
  faults.drop_rate = 1.1;
  EXPECT_FALSE(faults.Validate().ok());
  faults.drop_rate = 0.0;
  faults.latency_micros = 20'000'000;
  EXPECT_FALSE(faults.Validate().ok());

  TransportPolicy policy;
  EXPECT_TRUE(policy.Validate().ok());
  policy.backoff_max_micros = policy.backoff_base_micros - 1;
  EXPECT_FALSE(policy.Validate().ok());
  policy = TransportPolicy{};
  policy.bandwidth_time_scale = 0.0;
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(TransportTest, FastPathTransmitOnlyCounts) {
  Connection conn(0, 1, Transport::kCudaVirtualMemory, kInvalidId, 25.0, TransportPolicy{},
                  FaultInjection{});
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(conn.Transmit(1024).ok());
  }
  const Connection::Stats stats = conn.stats();
  EXPECT_EQ(stats.transmits, 5u);
  EXPECT_EQ(stats.attempts, 5u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.drops_injected, 0u);
  EXPECT_EQ(stats.emulated_wait_ns, 0u);
}

TEST(TransportTest, FaultDrawsAreDeterministicPerSequence) {
  // Two connections with the same (pair, seed) must inject the identical
  // drop/jitter sequence regardless of when each is called — the draws are
  // counter-hashed, not stateful.
  TransportPolicy policy;
  policy.backoff_base_micros = 1;  // keep the test fast
  policy.backoff_max_micros = 1;
  FaultInjection faults;
  faults.all_transports = true;
  faults.drop_rate = 0.5;
  faults.seed = 1234;
  Connection a(2, 3, Transport::kCudaVirtualMemory, kInvalidId, 25.0, policy, faults);
  Connection b(2, 3, Transport::kCudaVirtualMemory, kInvalidId, 25.0, policy, faults);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(a.Transmit(64).ok());
  }
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(b.Transmit(64).ok());
  }
  EXPECT_EQ(a.stats().attempts, b.stats().attempts);
  EXPECT_EQ(a.stats().drops_injected, b.stats().drops_injected);
  EXPECT_GT(a.stats().drops_injected, 0u);  // drop_rate 0.5 over 40 sends must hit

  // A different seed gives a different fault stream (with overwhelming
  // probability over 40 x 50% draws).
  faults.seed = 99;
  Connection c(2, 3, Transport::kCudaVirtualMemory, kInvalidId, 25.0, policy, faults);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(c.Transmit(64).ok());
  }
  EXPECT_NE(c.stats().drops_injected, a.stats().drops_injected);
}

TEST(TransportTest, RetriesExhaustedReturnsUnavailable) {
  TransportPolicy policy;
  policy.max_retries = 3;
  policy.backoff_base_micros = 1;
  policy.backoff_max_micros = 2;
  FaultInjection faults;
  faults.all_transports = true;
  faults.drop_rate = 1.0;  // every attempt dropped
  Connection conn(0, 1, Transport::kNic, kInvalidId, 6.0, policy, faults);
  Status status = conn.Transmit(4096);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  const Connection::Stats stats = conn.stats();
  EXPECT_EQ(stats.transmits, 0u);
  EXPECT_EQ(stats.attempts, 4u);  // 1 try + 3 retries
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.drops_injected, 4u);
}

TEST(TransportTest, FaultsDefaultToNicOnly) {
  FaultInjection faults;
  faults.drop_rate = 1.0;
  faults.latency_micros = 5;
  Connection vm(0, 1, Transport::kCudaVirtualMemory, kInvalidId, 25.0, TransportPolicy{}, faults);
  Connection nic(0, 8, Transport::kNic, kInvalidId, 6.0, TransportPolicy{}, faults);
  EXPECT_FALSE(vm.faulty());
  EXPECT_TRUE(nic.faulty());
  EXPECT_TRUE(vm.Transmit(128).ok());      // shared memory does not drop
  EXPECT_FALSE(nic.Transmit(128).ok());    // the emulated wire does
}

TEST(TransportTest, BandwidthEmulationWaitsWallClock) {
  TransportPolicy policy;
  policy.emulate_bandwidth = true;
  policy.bandwidth_time_scale = 1.0;
  // 10 MB at 10 GB/s = 1 ms of emulated wire time.
  Connection conn(0, 1, Transport::kCudaVirtualMemory, kInvalidId, 10.0, policy,
                  FaultInjection{});
  EXPECT_TRUE(conn.Transmit(10'000'000).ok());
  EXPECT_NEAR(static_cast<double>(conn.stats().emulated_wait_ns), 1e6, 1e4);
}

TEST(TransportTest, ConnectionTableMapsEveryOpToItsPair) {
  Rng rng(31);
  CsrGraph graph = GenerateErdosRenyi(80, 260, rng);
  Topology topo = BuildPaperTopology(8);
  MultilevelPartitioner metis;
  CommRelation rel = *BuildCommRelation(graph, *metis.Partition(graph, 8));
  SpstPlanner spst;
  CompiledPlan plan = CompilePlan(*spst.Plan(rel, topo, 64), topo);

  auto table = ConnectionTable::Build(topo, plan, TransportPolicy{}, FaultInjection{}, {});
  ASSERT_TRUE(table.ok());
  ASSERT_GT(table->size(), 0u);
  for (uint32_t i = 0; i < plan.ops.size(); ++i) {
    const Connection& conn = table->ForOp(i);
    EXPECT_EQ(conn.src(), plan.ops[i].src);
    EXPECT_EQ(conn.dst(), plan.ops[i].dst);
    EXPECT_EQ(conn.transport(), SelectTransport(topo, conn.src(), conn.dst()));
  }
  // Find: every plan pair is present; a self pair is not.
  EXPECT_NE(table->Find(plan.ops[0].src, plan.ops[0].dst), nullptr);
  EXPECT_EQ(table->Find(0, 0), nullptr);

  // dead_device out of range is rejected at Build.
  FaultInjection dead;
  dead.dead_device = 1000;
  EXPECT_FALSE(ConnectionTable::Build(topo, plan, TransportPolicy{}, dead, {}).ok());
}

}  // namespace
}  // namespace dgcl
