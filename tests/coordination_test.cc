// The §6.1 ready/done flag protocol must deliver the known answer on every
// GPU count. The fault-injection tests exercise the runtime's failure paths:
// a dead peer turns into a kDeadlineExceeded Status (never a hang), dropped
// transmits are retried to an identical result, and exhausted retries
// surface the transport's kUnavailable. The trace-shape test pins the
// wait-span taxonomy the `dgcl_trace summarize --waits` tool consumes.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <unordered_map>

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

// Every slot a device holds carries its vertex's embedding: row 0 is v + 1.
TEST_P(CoordinationSweep, ModesProduceIdenticalForwardResults) {
  Fixture f = Fixture::Make(GetParam(), 11);
  auto engine = MakeEngine(f);
  ASSERT_TRUE(engine.ok());
  auto out = engine->Forward(f.Local(3));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    for (const auto* vertices : {&f.relation.local_vertices[d], &f.relation.remote_vertices[d]}) {
      for (VertexId v : *vertices) {
        EXPECT_EQ((*out)[d].Row(engine->SlotOf(d, v))[0], static_cast<float>(v + 1))
            << "device " << d << ", vertex " << v;
      }
    }
  }
}

// With all-ones slot gradients, each local vertex gathers its own 1 plus one
// per device that holds it as a remote (exact in float).
TEST_P(CoordinationSweep, ModesProduceIdenticalBackwardResults) {
  Fixture f = Fixture::Make(GetParam(), 13);
  auto engine = MakeEngine(f);
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
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::unordered_map<VertexId, uint32_t> holders;
  for (const std::vector<VertexId>& remotes : f.relation.remote_vertices) {
    for (VertexId v : remotes) {
      ++holders[v];
    }
  }
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    const std::vector<VertexId>& locals = f.relation.local_vertices[d];
    for (uint32_t i = 0; i < locals.size(); ++i) {
      const float want = 1.0f + static_cast<float>(holders[locals[i]]);
      for (uint32_t c = 0; c < 2; ++c) {
        EXPECT_EQ((*out)[d].Row(i)[c], want) << "device " << d << ", vertex " << locals[i];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, CoordinationSweep, ::testing::Values(2u, 4u, 8u, 16u));

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
  // Deadlines past a day would overflow `now + timeout` on the clock.
  for (uint64_t timeout : {UINT64_MAX, uint64_t{1} << 62}) {
    options = {};
    options.transport.wait_timeout_micros = timeout;
    auto engine = MakeEngine(f, options);
    ASSERT_FALSE(engine.ok()) << timeout;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << timeout;
  }
  options = {};
  options.transport.wait_timeout_micros = 0;  // waits forever
  EXPECT_TRUE(MakeEngine(f, options).ok());
}

// A killed peer must fail the collective with a timeout Status, not hang:
// waiters time out on the dead peer's flags. The first timeout aborts every
// other wait, in every device thread, so the collective fails in about one
// deadline rather than one per blocked wait, and the recovery handoff names
// exactly the dead device: innocents that merely aborted stay off the
// suspect list.
TEST(CoordinationTest, DeadPeerFailsTheCollectiveInsteadOfHanging) {
  Fixture f = Fixture::Make(4, 19);
  EngineOptions options;
  options.faults.dead_device = 1;
  options.transport.wait_timeout_micros = 150'000;  // fail fast, not in 30s
  auto engine = MakeEngine(f, options);
  ASSERT_TRUE(engine.ok());
  const auto start = std::chrono::steady_clock::now();
  auto out = engine->Forward(f.Local(2));
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded) << out.status().ToString();
  EXPECT_LT(elapsed_s, 1.2) << "blocked waits ran to serial deadlines";
  auto failure = engine->last_failure();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->suspects, DeviceMask{1} << 1);
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
  EngineOptions options;
  options.faults.all_transports = true;
  options.faults.latency_micros = 20;  // make the waits non-trivial
  auto engine = MakeEngine(f, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Forward(f.Local(2)).ok());

  telemetry::Trace trace = telem.Collect();
  telem.Reset();
  telem.SetEnabled(was_enabled);

  uint64_t ready_waits = 0, done_waits = 0;
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
    }
  }
  EXPECT_GT(ready_waits, 0u);
  EXPECT_GT(done_waits, 0u);
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
