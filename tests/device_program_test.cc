// Device programs across passes: a whole epoch runs as one program per
// device, so fast devices run ahead into the next pass while slow ones are
// still in the previous one. Senders write straight into their receivers'
// slot rows, so no sender may write a device's rows before that device has
// entered the pass, and a failure in one pass must abort peers that are
// already in the next.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <stop_token>
#include <thread>
#include <vector>

#include "common/ids.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "planner/baselines.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

constexpr uint32_t kDevices = 4;
constexpr uint32_t kLayers = 3;

struct World {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;
  CompiledPlan plan;
  EmbeddingMatrix features;
  std::vector<uint32_t> labels;
  uint32_t num_classes = 4;

  // A strip cut into column blocks and planned peer to peer: the devices
  // form a line, each exchanging only with its neighbours, so the devices
  // far from a slow or dead one run ahead of it.
  static World Make(uint64_t seed) {
    constexpr uint32_t kRows = 4;
    constexpr uint32_t kCols = 60;
    World w;
    Rng rng(seed);
    w.graph = GenerateGrid(kRows, kCols);
    Partitioning blocks;
    blocks.num_parts = kDevices;
    for (VertexId v = 0; v < kRows * kCols; ++v) {
      blocks.assignment.push_back(v % kCols * kDevices / kCols);
    }
    w.relation = *BuildCommRelation(w.graph, blocks);
    w.topo = BuildPaperTopology(kDevices);
    PeerToPeerPlanner p2p;
    w.plan = CompilePlan(*p2p.Plan(w.relation, w.topo, 64), w.topo);
    AssignBackwardSubstages(w.plan);
    w.features = EmbeddingMatrix::Zero(w.graph.num_vertices(), 6);
    w.labels.resize(w.graph.num_vertices());
    for (VertexId v = 0; v < w.graph.num_vertices(); ++v) {
      w.labels[v] = v % w.num_classes;
      for (uint32_t c = 0; c < w.features.dim; ++c) {
        w.features.Row(v)[c] = rng.UniformFloat(-0.5f, 0.5f);
      }
      w.features.Row(v)[w.labels[v]] += 1.0f;
    }
    return w;
  }
};

bool BitwiseEqual(const EmbeddingMatrix& a, const EmbeddingMatrix& b) {
  return a.rows == b.rows && a.dim == b.dim && a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(), a.data.size() * sizeof(float)) == 0;
}

struct Trained {
  std::vector<double> losses;
  std::vector<ReplicaWeights> replicas;  // per device
};

Trained Train(const World& w, GnnModel model, const EngineOptions& engine_options) {
  Trained out;
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo, engine_options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) {
    return out;
  }
  TrainerOptions options;
  options.model = model;
  options.num_layers = kLayers;
  options.hidden_dim = 8;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            w.num_classes, options);
  EXPECT_TRUE(trainer.ok()) << trainer.status().ToString();
  if (!trainer.ok()) {
    return out;
  }
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto result = trainer->TrainEpoch();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) {
      return out;
    }
    out.losses.push_back(result->loss);
  }
  for (uint32_t d = 0; d < kDevices; ++d) {
    out.replicas.push_back(trainer->ExportReplica(d));
  }
  return out;
}

class CrossPassRace : public ::testing::TestWithParam<GnnModel> {};

// A 3-layer epoch runs two forward passes back to back, then two backward
// passes, with little compute between them. A straggler (it sleeps before
// every stage of every pass) lets the fast devices run into the next pass
// while it is still in the previous one; the losses and every replica's
// weights must stay bitwise equal to the run without it.
TEST_P(CrossPassRace, StragglerLeavesLossesAndWeightsBitwiseEqual) {
  const GnnModel model = GetParam();
  const World w = World::Make(57);
  const EngineOptions clean;
  const Trained want = Train(w, model, clean);
  ASSERT_EQ(want.losses.size(), 3u);
  for (uint32_t straggler : {0u, 3u}) {
    EngineOptions slow = clean;
    slow.straggler_device = straggler;
    slow.straggler_micros = 300;
    const Trained got = Train(w, model, slow);
    ASSERT_EQ(got.losses.size(), want.losses.size()) << "straggler " << straggler;
    for (size_t e = 0; e < want.losses.size(); ++e) {
      EXPECT_EQ(std::memcmp(&got.losses[e], &want.losses[e], sizeof(double)), 0)
          << "straggler " << straggler << ", epoch " << e << ": " << got.losses[e] << " vs "
          << want.losses[e];
    }
    for (uint32_t d = 0; d < kDevices; ++d) {
      const ReplicaWeights& a = got.replicas[d];
      const ReplicaWeights& b = want.replicas[d];
      ASSERT_EQ(a.layers.size(), b.layers.size());
      for (size_t l = 0; l < a.layers.size(); ++l) {
        ASSERT_EQ(a.layers[l].size(), b.layers[l].size());
        for (size_t p = 0; p < a.layers[l].size(); ++p) {
          EXPECT_TRUE(BitwiseEqual(a.layers[l][p], b.layers[l][p]))
              << "straggler " << straggler << ", device " << d << ", layer " << l << ", param "
              << p;
        }
      }
      EXPECT_TRUE(BitwiseEqual(a.head, b.head)) << "straggler " << straggler << ", device " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GcnAndGin, CrossPassRace,
                         ::testing::Values(GnnModel::kGcn, GnnModel::kGin));

// Value of vertex v's column c in forward pass `pass` of SleeperBetweenPasses.
float PassValue(VertexId v, uint32_t c, uint32_t pass) {
  return static_cast<float>(v * 1000 + c) + (pass == 0 ? 0.0f : 0.5f);
}

// A program of two forward passes in which one device, between them, keeps
// reading its slot rows for a while: its peers finish the first pass and
// enter the second at once, but none may write into the sleeper's rows
// before it enters the second pass too. Both passes must then deliver their
// own values everywhere.
TEST(DeviceProgramTest, SleeperBetweenForwardPassesKeepsItsRowsUntilItEnters) {
  const World w = World::Make(57);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  constexpr uint32_t kDim = 4;
  constexpr uint32_t kSleeper = 1;  // an inner device of the line: two peers write into it
  std::vector<EmbeddingMatrix> slots;
  for (uint32_t d = 0; d < kDevices; ++d) {
    slots.push_back(EmbeddingMatrix::Zero(engine->NumSlots(d), kDim));
  }
  bool sleeper_rows_unchanged = false;
  auto fill_locals = [&](uint32_t d, uint32_t pass) {
    const std::vector<VertexId>& locals = w.relation.local_vertices[d];
    for (uint32_t i = 0; i < locals.size(); ++i) {
      for (uint32_t c = 0; c < kDim; ++c) {
        slots[d].Row(i)[c] = PassValue(locals[i], c, pass);
      }
    }
  };
  const Status status = engine->RunProgram(kDim, [&](DevicePasses& passes) {
    const uint32_t d = passes.device();
    fill_locals(d, 0);
    DGCL_RETURN_IF_ERROR(passes.Forward(slots[d]));
    if (d == kSleeper) {
      const std::vector<float> seen = slots[d].data;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      sleeper_rows_unchanged = seen == slots[d].data;
    }
    fill_locals(d, 1);
    return passes.Forward(slots[d]);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(sleeper_rows_unchanged)
      << "a peer wrote into the sleeper's rows before it entered the second pass";
  for (uint32_t d = 0; d < kDevices; ++d) {
    const std::vector<VertexId>& remotes = w.relation.remote_vertices[d];
    ASSERT_FALSE(remotes.empty());
    for (VertexId v : remotes) {
      const float* row = slots[d].Row(engine->SlotOf(d, v));
      for (uint32_t c = 0; c < kDim; ++c) {
        ASSERT_EQ(row[c], PassValue(v, c, 1)) << "device " << d << ", vertex " << v;
      }
    }
  }
}

// Devices that finish one forward pass although `victim` never takes part:
// replays the flag protocol (a sender passes its gate once its receiver has
// entered the pass and finished the earlier stages; a receiver finishes a
// stage once every sender of it has sent) with the victim silent: it never
// enters, so nothing is sent to it either.
std::vector<uint32_t> FinishWithout(const AllgatherEngine& engine, uint32_t victim) {
  const CompiledPlan& plan = engine.plan();
  std::vector<uint32_t> finished(kDevices, 0);  // stages finished
  for (uint32_t stage = 0; stage < plan.num_stages; ++stage) {
    std::vector<bool> sends(kDevices, true);
    for (const TransferOp& op : plan.ops) {
      if (op.stage == stage && (op.src == victim || op.dst == victim ||
                                finished[op.src] < stage || finished[op.dst] < stage)) {
        sends[op.src] = false;
      }
    }
    for (uint32_t d = 0; d < kDevices; ++d) {
      bool done = d != victim && finished[d] == stage && sends[d];
      for (const TransferOp& op : plan.ops) {
        if (op.stage == stage && op.dst == d && !sends[op.src]) {
          done = false;
        }
      }
      if (done) {
        finished[d] = stage + 1;
      }
    }
  }
  std::vector<uint32_t> runners;
  for (uint32_t d = 0; d < kDevices; ++d) {
    if (finished[d] == plan.num_stages) {
      runners.push_back(d);
    }
  }
  return runners;
}

// A device dies on entering the first forward pass of a 3-layer epoch, and
// some peer finishes that pass without it and runs into the next one. The
// epoch must fail once, with a timeout well inside two wait deadlines, name
// only the victim, and count passes as a pass-by-pass schedule would: up to
// and including the killed pass. `hogs` busy threads run from before the
// healthy epoch to the end of the failing one.
void KillWhilePeersRunAhead(unsigned hogs) {
  const World w = World::Make(57);
  auto probe = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(probe.ok());
  uint32_t victim = kInvalidId;
  for (uint32_t d = 0; d < kDevices && victim == kInvalidId; ++d) {
    if (!FinishWithout(*probe, d).empty()) {
      victim = d;
    }
  }
  ASSERT_NE(victim, kInvalidId) << "no plan device whose death leaves a peer running ahead";

  constexpr uint64_t kTimeoutMicros = 300'000;
  const uint32_t kill_pass = DistributedTrainer::PassesPerEpoch(kLayers);  // epoch 1, layer 1
  EngineOptions options;
  options.faults.dead_device = victim;
  options.faults.dead_from_pass = kill_pass;
  options.transport.wait_timeout_micros = kTimeoutMicros;
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo, options);
  ASSERT_TRUE(engine.ok());
  TrainerOptions trainer_options;
  trainer_options.num_layers = kLayers;
  trainer_options.hidden_dim = 8;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            w.num_classes, trainer_options);
  ASSERT_TRUE(trainer.ok());

  std::vector<std::jthread> busy;  // each spins until its destructor stops it
  for (unsigned i = 0; i < hogs; ++i) {
    busy.emplace_back([](std::stop_token stop) {
      while (!stop.stop_requested()) {
      }
    });
  }
  ASSERT_TRUE(trainer->TrainEpoch().ok()) << "epoch 0 runs before the kill";
  EXPECT_EQ(engine->pass_count(), kill_pass);

  const auto start = std::chrono::steady_clock::now();
  auto failed = trainer->TrainEpoch();
  const auto elapsed_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
  busy.clear();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded) << failed.status().ToString();
  EXPECT_LT(elapsed_micros, static_cast<int64_t>(kTimeoutMicros * 3 / 2))
      << "the failure must abort every pass at once, not time out pass after pass";
  const std::optional<PassFailure> failure = engine->last_failure();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->suspects, DeviceMask{1} << victim);
  EXPECT_EQ(failure->pass_index, kill_pass);
  EXPECT_EQ(failure->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine->pass_count(), kill_pass + 1u);
}

TEST(DeviceProgramFailureTest, KillWhilePeersRunAheadFailsOnceWithTheVictimAsSuspect) {
  KillWhilePeersRunAhead(/*hogs=*/0);
}

// The same kill with a busy thread per core: the waits must still keep their
// deadline by the clock, and park rather than take the cores their peers need.
TEST(DeviceProgramFailureTest, KillUnderOversubscription) {
  KillWhilePeersRunAhead(std::thread::hardware_concurrency());
}

}  // namespace
}  // namespace dgcl
