// Centralized vs decentralized coordination (§6.1) must deliver identical
// results; only the synchronization protocol differs. The fault-injection
// tests exercise the runtime's failure paths: a dead peer turns into a
// kDeadlineExceeded Status (never a hang), dropped transmits are retried to
// an identical result, and exhausted retries surface the transport's
// kUnavailable. The trace-shape test pins the wait-span taxonomy the
// `dgcl_trace summarize --waits` tool consumes.

#include <gtest/gtest.h>

#include <chrono>

#include "graph/generators.h"
#include "partition/multilevel.h"
#include "planner/spst.h"
#include "runtime/allgather_engine.h"
#include "telemetry/trace.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct Fixture {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;
  CompiledPlan plan;

  static Fixture Make(uint32_t gpus, uint64_t seed) {
    Fixture f;
    Rng rng(seed);
    f.graph = GenerateErdosRenyi(70, 210, rng);
    f.topo = BuildPaperTopology(gpus);
    MultilevelPartitioner metis;
    f.relation = *BuildCommRelation(f.graph, *metis.Partition(f.graph, gpus));
    SpstPlanner spst;
    f.plan = CompilePlan(*spst.Plan(f.relation, f.topo, 64), f.topo);
    AssignBackwardSubstages(f.plan);
    return f;
  }

  std::vector<EmbeddingMatrix> Local(uint32_t dim) const {
    std::vector<EmbeddingMatrix> local;
    for (uint32_t d = 0; d < relation.num_devices; ++d) {
      const auto& locals = relation.local_vertices[d];
      EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), dim);
      for (uint32_t i = 0; i < locals.size(); ++i) {
        m.Row(i)[0] = static_cast<float>(locals[i] + 1);
      }
      local.push_back(std::move(m));
    }
    return local;
  }
};

Result<AllgatherEngine> MakeEngine(const Fixture& f, const EngineOptions& options = {}) {
  return AllgatherEngine::Create(f.relation, f.plan, f.topo, options);
}

class CoordinationSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CoordinationSweep, ModesProduceIdenticalForwardResults) {
  Fixture f = Fixture::Make(GetParam(), 11);
  auto local = f.Local(3);
  std::vector<std::vector<EmbeddingMatrix>> outputs;
  for (CoordinationMode mode :
       {CoordinationMode::kDecentralized, CoordinationMode::kCentralized}) {
    EngineOptions options;
    options.coordination = mode;
    auto engine = MakeEngine(f, options);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine->coordination_mode(), mode);
    auto out = engine->Forward(local);
    ASSERT_TRUE(out.ok());
    outputs.push_back(*std::move(out));
  }
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    EXPECT_EQ(outputs[0][d].data, outputs[1][d].data) << "device " << d;
  }
}

TEST_P(CoordinationSweep, ModesProduceIdenticalBackwardResults) {
  Fixture f = Fixture::Make(GetParam(), 13);
  std::vector<std::vector<EmbeddingMatrix>> outputs;
  for (CoordinationMode mode :
       {CoordinationMode::kDecentralized, CoordinationMode::kCentralized}) {
    EngineOptions options;
    options.coordination = mode;
    auto engine = MakeEngine(f, options);
    ASSERT_TRUE(engine.ok());
    std::vector<EmbeddingMatrix> grads;
    for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
      EmbeddingMatrix g = EmbeddingMatrix::Zero(engine->NumContractSlots(d), 2);
      for (float& x : g.data) {
        x = 1.0f;
      }
      grads.push_back(std::move(g));
    }
    auto out = engine->Backward(grads);
    ASSERT_TRUE(out.ok());
    outputs.push_back(*std::move(out));
  }
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    EXPECT_EQ(outputs[0][d].data, outputs[1][d].data) << "device " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, CoordinationSweep, ::testing::Values(2u, 4u, 8u, 16u));

TEST(CoordinationTest, DefaultIsDecentralized) {
  Fixture f = Fixture::Make(2, 17);
  auto engine = MakeEngine(f);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->coordination_mode(), CoordinationMode::kDecentralized);
}

TEST(CoordinationTest, CreateRejectsInvalidOptions) {
  Fixture f = Fixture::Make(2, 17);
  EngineOptions options;
  options.faults.drop_rate = 2.0;
  EXPECT_FALSE(MakeEngine(f, options).ok());
  options = {};
  options.transport.backoff_max_micros = 1;
  options.transport.backoff_base_micros = 10;
  EXPECT_FALSE(MakeEngine(f, options).ok());
  options = {};
  options.transport_overrides.push_back({0, 99, Transport::kNic});
  EXPECT_FALSE(MakeEngine(f, options).ok());
}

// A killed peer must fail the collective with a timeout Status, not hang.
// Both protocols: decentralized waiters time out on the dead peer's flags;
// the centralized barrier poisons itself when the peer never arrives. The
// first timeout poisons every other wait, in every device thread, so the
// collective fails in about one deadline rather than one per blocked wait,
// and the recovery handoff names exactly the dead device: innocents that
// merely aborted stay off the suspect list.
TEST(CoordinationTest, DeadPeerFailsTheCollectiveInsteadOfHanging) {
  Fixture f = Fixture::Make(4, 19);
  auto local = f.Local(2);
  for (CoordinationMode mode :
       {CoordinationMode::kDecentralized, CoordinationMode::kCentralized}) {
    EngineOptions options;
    options.coordination = mode;
    options.faults.dead_device = 1;
    options.transport.wait_timeout_micros = 150'000;  // fail fast, not in 30s
    auto engine = MakeEngine(f, options);
    ASSERT_TRUE(engine.ok());
    const auto start = std::chrono::steady_clock::now();
    auto out = engine->Forward(local);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ASSERT_FALSE(out.ok()) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded)
        << "mode " << static_cast<int>(mode) << ": " << out.status().ToString();
    EXPECT_LT(elapsed_s, 1.2) << "mode " << static_cast<int>(mode)
                              << ": blocked waits ran to serial deadlines";
    auto failure = engine->last_failure();
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->suspects, DeviceMask{1} << 1) << "mode " << static_cast<int>(mode);
  }
}

// Injected drops force retries but never corrupt the payload: a faulted
// engine's outputs are bit-identical to a clean engine's.
TEST(CoordinationTest, DroppedTransmitsRetryToIdenticalOutputs) {
  Fixture f = Fixture::Make(4, 23);
  auto local = f.Local(3);
  auto clean = MakeEngine(f);
  ASSERT_TRUE(clean.ok());
  auto want = clean->Forward(local);
  ASSERT_TRUE(want.ok());

  EngineOptions options;
  options.faults.all_transports = true;  // 4 GPUs, one machine: no NIC pairs
  options.faults.drop_rate = 0.25;
  options.faults.jitter_micros = 5;
  options.transport.max_retries = 10;  // P(10 straight drops) ~ 1e-6 per op
  options.transport.backoff_base_micros = 1;
  options.transport.backoff_max_micros = 20;
  auto faulted = MakeEngine(f, options);
  ASSERT_TRUE(faulted.ok());
  auto got = faulted->Forward(local);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    EXPECT_EQ((*got)[d].data, (*want)[d].data) << "device " << d;
  }
  uint64_t drops = 0;
  const ConnectionTable& table = faulted->connections();
  for (size_t i = 0; i < table.size(); ++i) {
    drops += table.connection(i).stats().drops_injected;
  }
  EXPECT_GT(drops, 0u) << "drop_rate 0.25 should have injected at least one drop";
}

TEST(CoordinationTest, ExhaustedRetriesSurfaceUnavailable) {
  Fixture f = Fixture::Make(4, 23);
  EngineOptions options;
  options.faults.all_transports = true;
  options.faults.drop_rate = 1.0;  // every attempt dropped, retries must exhaust
  options.transport.max_retries = 2;
  options.transport.backoff_base_micros = 1;
  options.transport.backoff_max_micros = 2;
  auto engine = MakeEngine(f, options);
  ASSERT_TRUE(engine.ok());
  auto out = engine->Forward(f.Local(2));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable) << out.status().ToString();
}

// The wait-span taxonomy is an interface: `dgcl_trace summarize --waits` and
// the cost-model audit both key on these names/args. Pin span names, the
// transport-name category and the {peer, stage} tags.
TEST(CoordinationTest, WaitSpansCarryPeerAndStageTags) {
  telemetry::Telemetry& telem = telemetry::Telemetry::Get();
  const bool was_enabled = telemetry::Telemetry::Enabled();
  telem.SetEnabled(true);
  telem.Reset();

  Fixture f = Fixture::Make(4, 29);
  for (CoordinationMode mode :
       {CoordinationMode::kDecentralized, CoordinationMode::kCentralized}) {
    EngineOptions options;
    options.coordination = mode;
    options.faults.all_transports = true;
    options.faults.latency_micros = 20;  // make the waits non-trivial
    auto engine = MakeEngine(f, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->Forward(f.Local(2)).ok());
  }

  telemetry::Trace trace = telem.Collect();
  telem.Reset();
  telem.SetEnabled(was_enabled);

  uint64_t ready_waits = 0, done_waits = 0, barrier_waits = 0;
  for (const telemetry::TraceEvent& ev : trace.events) {
    if (ev.kind != telemetry::TraceEventKind::kSpan ||
        ev.name.find("wait") == std::string::npos) {
      continue;
    }
    bool has_peer = false, has_stage = false;
    for (size_t i = 0; i < ev.arg_key.size(); ++i) {
      has_peer = has_peer || ev.arg_key[i] == "peer";
      has_stage = has_stage || ev.arg_key[i] == "stage";
    }
    EXPECT_TRUE(has_peer) << ev.name;
    EXPECT_TRUE(has_stage) << ev.name;
    if (ev.name == "fwd.wait.ready" || ev.name == "fwd.wait.done") {
      // Wait spans on the data path are categorized by their transport.
      EXPECT_TRUE(ev.category == "cuda-vm" || ev.category == "pinned-host" ||
                  ev.category == "nic")
          << ev.category;
      (ev.name == "fwd.wait.ready" ? ready_waits : done_waits) += 1;
    } else if (ev.name == "wait.barrier") {
      EXPECT_EQ(ev.category, "runtime");
      ++barrier_waits;
    }
  }
  EXPECT_GT(ready_waits, 0u);
  EXPECT_GT(done_waits, 0u);
  EXPECT_GT(barrier_waits, 0u);
}

// The acceptance path end to end: latency injected on the NIC transport only
// (2-machine topology, no all_transports widening) shows up as nic-categorized
// wait spans in a recorded trace, and the faulted run still delivers outputs
// bit-identical to a clean engine.
TEST(CoordinationTest, InjectedNicLatencyShowsUpInNicWaitSpans) {
  telemetry::Telemetry& telem = telemetry::Telemetry::Get();
  const bool was_enabled = telemetry::Telemetry::Enabled();
  telem.SetEnabled(true);
  telem.Reset();

  Fixture f = Fixture::Make(16, 31);  // 2 machines: cross-machine pairs ride the NIC
  auto local = f.Local(2);
  auto clean = MakeEngine(f);
  ASSERT_TRUE(clean.ok());
  auto want = clean->Forward(local);
  ASSERT_TRUE(want.ok());

  EngineOptions options;
  options.faults.latency_micros = 30;  // NIC-only by default
  auto engine = MakeEngine(f, options);
  ASSERT_TRUE(engine.ok());
  auto got = engine->Forward(local);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  telemetry::Trace trace = telem.Collect();
  telem.Reset();
  telem.SetEnabled(was_enabled);

  uint64_t nic_waits = 0;
  for (const telemetry::TraceEvent& ev : trace.events) {
    if (ev.kind == telemetry::TraceEventKind::kSpan && ev.category == "nic" &&
        ev.name.find("wait") != std::string::npos) {
      ++nic_waits;
    }
  }
  EXPECT_GT(nic_waits, 0u);
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    EXPECT_EQ((*got)[d].data, (*want)[d].data) << "device " << d;
  }
}

}  // namespace
}  // namespace dgcl
