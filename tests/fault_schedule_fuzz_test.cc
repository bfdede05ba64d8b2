// Fault-schedule fuzzing for the elastic training loop.
//
// Each seed draws a random workload (graph, fully-connected topology, model
// shape) and a random fault schedule: nothing, transport latency/jitter,
// transport drops, or a device kill at a random engine pass. It then trains
// through it with recovery enabled. The invariant is the whole point of the
// recovery design:
//
//   every run either completes with a loss trajectory BIT-IDENTICAL to the
//   fault-free run (latency, drops and never-triggered kills must not change
//   the math), or it recovers — exactly one committed membership epoch, one
//   device folded away — and its trajectory matches the fault-free run within
//   float-reassociation tolerance.
//
// The second fuzzer (ServingKillScheduleFuzzTest) points the same technique
// at the serving tier's replica layer: random (shards, replicas, pool width)
// configs under random kill schedules mixing replica kills and whole-shard
// kills, fired while requests are queued or in flight. The
// invariant is the replica tier's contract: every request completes exactly
// once, and its response is either BYTE-IDENTICAL to the all-alive R=1
// baseline or a clean kUnavailable naming only dead shards as suspects —
// nothing in between, no hangs, no drops.
//
// Failures print the seed; re-run a single schedule with
//   DGCL_FUZZ_BASE_SEED=<seed> DGCL_FUZZ_SEEDS=1 ./fault_schedule_fuzz_test
// The default budget is 200 schedules; CI tiers override DGCL_FUZZ_SEEDS.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "dgcl/dgcl.h"
#include "dgcl/elastic.h"
#include "graph/generators.h"
#include "random_topology.h"
#include "service/service.h"
#include "topology/topology.h"

namespace dgcl {
namespace {

enum class FaultKind : uint32_t { kNone, kLatency, kDrop, kKill };

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kLatency:
      return "latency";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kKill:
      return "kill";
  }
  return "?";
}

struct Schedule {
  uint32_t devices = 0;
  uint32_t vertices = 0;
  uint32_t edges = 0;
  uint32_t num_layers = 0;
  uint32_t hidden_dim = 0;
  uint32_t feature_dim = 0;
  uint32_t epochs = 0;
  FaultKind kind = FaultKind::kNone;
  uint32_t victim = kInvalidId;
  uint32_t kill_pass = 0;  // engine pass index; may land past the run's end

  std::string Describe() const {
    std::string s = "devices=" + std::to_string(devices) + " vertices=" +
                    std::to_string(vertices) + " fault=" + FaultKindName(kind);
    if (kind == FaultKind::kKill) {
      s += " victim=" + std::to_string(victim) + " kill_pass=" + std::to_string(kill_pass);
    }
    return s;
  }
};

Schedule DrawSchedule(Rng& rng) {
  Schedule s;
  s.devices = 3 + static_cast<uint32_t>(rng.UniformInt(4));  // 3..6
  s.vertices = 40 + static_cast<uint32_t>(rng.UniformInt(50));
  s.edges = s.vertices * (3 + static_cast<uint32_t>(rng.UniformInt(3)));
  s.num_layers = 2 + static_cast<uint32_t>(rng.UniformInt(2));  // 2..3
  s.hidden_dim = 4 + static_cast<uint32_t>(rng.UniformInt(5));
  s.feature_dim = 3 + static_cast<uint32_t>(rng.UniformInt(4));
  s.epochs = 2 + static_cast<uint32_t>(rng.UniformInt(2));  // 2..3
  s.kind = static_cast<FaultKind>(rng.UniformInt(4));
  if (s.kind == FaultKind::kKill) {
    s.victim = static_cast<uint32_t>(rng.UniformInt(s.devices));
    // Drawing past the end (the +2 slack) deliberately fuzzes
    // never-triggered kills.
    const uint32_t total_passes = s.epochs * DistributedTrainer::PassesPerEpoch(s.num_layers);
    s.kill_pass = static_cast<uint32_t>(rng.UniformInt(total_passes + 2));
  }
  return s;
}

struct RunOutcome {
  std::vector<double> losses;
  uint32_t recoveries = 0;
  uint32_t final_devices = 0;
};

// Trains `schedule.epochs` epochs; `faulted` selects whether the schedule's
// fault is injected. Returns false (with ADD_FAILURE) on any hard error.
bool RunSchedule(const Schedule& schedule, uint64_t seed, bool faulted, RunOutcome& out) {
  Rng workload_rng(seed);  // same workload for both arms, fault or not
  CsrGraph graph = GenerateErdosRenyi(schedule.vertices, schedule.edges, workload_rng);
  Topology topo;
  BuildRandomFullyConnectedTopology(schedule.devices, workload_rng, topo);

  EmbeddingMatrix features = EmbeddingMatrix::Zero(schedule.vertices, schedule.feature_dim);
  for (uint32_t v = 0; v < schedule.vertices; ++v) {
    for (uint32_t c = 0; c < schedule.feature_dim; ++c) {
      features.Row(v)[c] = static_cast<float>(workload_rng.UniformDouble()) - 0.5f;
    }
  }
  const uint32_t num_classes = 3;
  std::vector<uint32_t> labels(schedule.vertices);
  for (uint32_t v = 0; v < schedule.vertices; ++v) {
    labels[v] = static_cast<uint32_t>(workload_rng.UniformInt(num_classes));
  }

  DgclOptions options;
  if (faulted) {
    switch (schedule.kind) {
      case FaultKind::kNone:
        break;
      case FaultKind::kLatency:
        options.engine.faults.latency_micros = 200;
        options.engine.faults.jitter_micros = 100;
        options.engine.faults.all_transports = true;
        options.engine.faults.seed = seed;
        break;
      case FaultKind::kDrop:
        options.engine.faults.drop_rate = 0.1;
        options.engine.faults.all_transports = true;
        options.engine.faults.seed = seed;
        break;
      case FaultKind::kKill:
        options.engine.faults.dead_device = schedule.victim;
        options.engine.faults.dead_from_pass = schedule.kill_pass;
        options.engine.transport.wait_timeout_micros = 150'000;
        break;
    }
  }

  auto ctx = DgclContext::Init(std::move(topo), options);
  if (!ctx.ok()) {
    ADD_FAILURE() << "Init: " << ctx.status().ToString();
    return false;
  }
  if (Status status = ctx->BuildCommInfo(graph); !status.ok()) {
    ADD_FAILURE() << "BuildCommInfo: " << status.ToString();
    return false;
  }
  TrainerOptions trainer_options;
  trainer_options.num_layers = schedule.num_layers;
  trainer_options.hidden_dim = schedule.hidden_dim;
  auto session =
      ElasticTrainingSession::Create(*ctx, graph, features, labels, num_classes, trainer_options);
  if (!session.ok()) {
    ADD_FAILURE() << "Create: " << session.status().ToString();
    return false;
  }
  for (uint32_t e = 0; e < schedule.epochs; ++e) {
    auto result = session->TrainEpoch();
    if (!result.ok()) {
      ADD_FAILURE() << "epoch " << e << ": " << result.status().ToString();
      return false;
    }
    out.losses.push_back(result->loss);
  }
  out.recoveries = session->recoveries();
  out.final_devices = ctx->num_devices();
  return true;
}

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

TEST(FaultScheduleFuzzTest, EveryScheduleCompletesOrRecovers) {
  const uint64_t base_seed = EnvOr("DGCL_FUZZ_BASE_SEED", 1000);
  const uint64_t num_seeds = EnvOr("DGCL_FUZZ_SEEDS", 200);
  uint64_t kills_triggered = 0;
  for (uint64_t seed = base_seed; seed < base_seed + num_seeds; ++seed) {
    Rng rng(seed);
    const Schedule schedule = DrawSchedule(rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + schedule.Describe());

    RunOutcome clean;
    RunOutcome fuzzed;
    if (!RunSchedule(schedule, seed, /*faulted=*/false, clean) ||
        !RunSchedule(schedule, seed, /*faulted=*/true, fuzzed)) {
      return;  // hard error already reported with the seed in scope
    }

    ASSERT_EQ(clean.recoveries, 0u) << "the fault-free arm must never recover";
    ASSERT_EQ(fuzzed.losses.size(), clean.losses.size());
    if (fuzzed.recoveries == 0) {
      // No recovery happened (no fault, tolerated fault, or a kill scheduled
      // past the end of the run): the trajectory must be bit-identical.
      EXPECT_EQ(fuzzed.final_devices, schedule.devices);
      for (uint32_t e = 0; e < clean.losses.size(); ++e) {
        ASSERT_EQ(fuzzed.losses[e], clean.losses[e])
            << "faults that don't kill must not change the math (epoch " << e << ")";
      }
    } else {
      ASSERT_EQ(schedule.kind, FaultKind::kKill) << "only kills may trigger recovery";
      ++kills_triggered;
      EXPECT_EQ(fuzzed.recoveries, 1u);
      EXPECT_EQ(fuzzed.final_devices, schedule.devices - 1);
      // Post-recovery the partitioning (and float summation order) differ,
      // so the match is tolerance-based rather than bitwise.
      for (uint32_t e = 0; e < clean.losses.size(); ++e) {
        ASSERT_NEAR(fuzzed.losses[e], clean.losses[e], 5e-3)
            << "recovery perturbed the trajectory (epoch " << e << ")";
      }
    }
  }
  // The draw distribution guarantees real kill coverage at the default
  // budget; tiny overridden budgets (CI smoke) may legitimately see none.
  if (num_seeds >= 100) {
    EXPECT_GT(kills_triggered, 5u) << "fuzz budget produced almost no live kills";
  }
}

// ---- serving-tier replica kill-schedule fuzzing -----------------------------

struct ServingKill {
  uint32_t at_request = 0;  // fire before submitting this request index
  bool whole_shard = false;
  uint32_t shard = 0;
  uint32_t replica = 0;
};

struct ServingSchedule {
  uint32_t shards = 2;
  uint32_t replicas = 1;
  uint32_t pool = 1;
  uint32_t vertices = 80;
  uint32_t requests = 24;
  bool start_before_kills = false;  // kills hit in-flight vs queued requests
  std::vector<ServingKill> kills;

  std::string Describe() const {
    std::string s = "shards=" + std::to_string(shards) + " R=" + std::to_string(replicas) +
                    " pool=" + std::to_string(pool) +
                    (start_before_kills ? " in-flight" : " queued");
    for (const ServingKill& kill : kills) {
      s += kill.whole_shard ? " kill-shard(" + std::to_string(kill.shard) + ")@"
                            : " kill(" + std::to_string(kill.shard) + "," +
                                  std::to_string(kill.replica) + ")@";
      s += std::to_string(kill.at_request);
    }
    return s;
  }
};

ServingSchedule DrawServingSchedule(Rng& rng) {
  ServingSchedule s;
  s.shards = 2 + static_cast<uint32_t>(rng.UniformInt(3));    // 2..4
  s.replicas = 1 + static_cast<uint32_t>(rng.UniformInt(3));  // 1..3
  // Drawn and discarded (it once picked a routing policy) so the fields drawn
  // after it, and so every seed's kill schedule, keep their values.
  (void)rng.UniformInt(3);
  s.pool = 1 + static_cast<uint32_t>(rng.UniformInt(2));
  s.vertices = 60 + static_cast<uint32_t>(rng.UniformInt(60));
  s.start_before_kills = rng.UniformInt(2) == 1;
  const uint32_t num_kills = static_cast<uint32_t>(rng.UniformInt(4));  // 0..3
  for (uint32_t k = 0; k < num_kills; ++k) {
    ServingKill kill;
    kill.at_request = static_cast<uint32_t>(rng.UniformInt(s.requests));
    kill.whole_shard = rng.UniformInt(4) == 0;  // simultaneous all-replica kill
    kill.shard = static_cast<uint32_t>(rng.UniformInt(s.shards));
    kill.replica = static_cast<uint32_t>(rng.UniformInt(s.replicas));
    s.kills.push_back(kill);
  }
  return s;
}

ServiceOptions ServingOptions(const ServingSchedule& s, bool baseline) {
  ServiceOptions options;
  options.num_shards = s.shards;
  options.samplers_per_shard = baseline ? 1 : s.pool;
  options.replication.replicas = baseline ? 1 : s.replicas;
  options.partitioner = "hash";
  options.cache_capacity_rows = 32;
  options.feature_dim = 6;
  options.hidden_dim = 4;
  options.request_deadline_micros = 2'000'000;
  return options;
}

SampleRequest ServingRequest(const ServingSchedule& s, uint64_t seed, uint32_t i) {
  SampleRequest request;
  request.request_id = i;
  request.shard = i % s.shards;
  request.num_seeds = 6;
  request.sample = {2, 4, seed * 131 + i};
  request.return_features = true;
  request.run_inference = (i % 4) == 0;
  return request;
}

TEST(ServingKillScheduleFuzzTest, ByteIdenticalOrCleanUnavailable) {
  const uint64_t base_seed = EnvOr("DGCL_FUZZ_BASE_SEED", 1000);
  const uint64_t num_seeds = EnvOr("DGCL_FUZZ_SEEDS", 200);
  uint64_t kills_applied = 0;
  uint64_t unavailable_seen = 0;
  for (uint64_t seed = base_seed; seed < base_seed + num_seeds; ++seed) {
    Rng rng(seed ^ 0x5e41);
    const ServingSchedule schedule = DrawServingSchedule(rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + schedule.Describe());

    Rng workload_rng(seed);
    CsrGraph graph = GenerateErdosRenyi(schedule.vertices, schedule.vertices * 5, workload_rng);

    // All-alive R=1 baseline over the synchronous path.
    auto baseline = GraphService::Create(graph, ServingOptions(schedule, /*baseline=*/true));
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    std::map<uint64_t, SampleResponse> expected;
    for (uint32_t i = 0; i < schedule.requests; ++i) {
      SampleResponse response = (*baseline)->Serve(ServingRequest(schedule, seed, i));
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      expected.emplace(response.request_id, std::move(response));
    }

    auto service = GraphService::Create(graph, ServingOptions(schedule, /*baseline=*/false));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    if (schedule.start_before_kills) {
      (*service)->Start();  // kills land on queued AND in-flight requests
    }
    for (uint32_t i = 0; i < schedule.requests; ++i) {
      for (const ServingKill& kill : schedule.kills) {
        if (kill.at_request != i) {
          continue;
        }
        // Kills may legitimately fail (already dead, last alive shard); only
        // committed ones count toward coverage.
        const Status killed = kill.whole_shard
                                  ? (*service)->KillShard(kill.shard)
                                  : (*service)->KillReplica(kill.shard, kill.replica);
        if (killed.ok()) {
          ++kills_applied;
        }
      }
      ASSERT_TRUE((*service)->Submit(ServingRequest(schedule, seed, i)).ok());
    }
    (*service)->Start();

    std::map<uint64_t, uint32_t> delivered;
    for (uint32_t i = 0; i < schedule.requests; ++i) {
      std::optional<SampleResponse> response = (*service)->PopResponse(5'000'000);
      ASSERT_TRUE(response.has_value()) << "response " << i << " never arrived (hang)";
      ++delivered[response->request_id];
      const SampleResponse& want = expected.at(response->request_id);
      if (response->status.ok()) {
        // Survivors served it: bytes must match the all-alive R=1 run.
        EXPECT_EQ(response->nodes, want.nodes);
        EXPECT_EQ(response->features.data, want.features.data);
        EXPECT_EQ(response->embeddings.data, want.embeddings.data);
      } else {
        // The only clean failure is kUnavailable naming dead shards.
        ++unavailable_seen;
        const MembershipView view = (*service)->membership();
        ASSERT_EQ(response->status.code(), StatusCode::kUnavailable)
            << response->status.ToString();
        ASSERT_FALSE(response->suspects.empty());
        for (uint32_t suspect : response->suspects) {
          ASSERT_LT(suspect, schedule.shards);
          EXPECT_FALSE(view.IsAlive(suspect))
              << "suspect " << suspect << " is still alive";
        }
      }
    }
    // Exactly-once delivery: each request id answered once, all of them.
    ASSERT_EQ(delivered.size(), schedule.requests);
    for (const auto& [id, count] : delivered) {
      ASSERT_EQ(count, 1u) << "request " << id << " answered " << count << " times";
    }
    (*service)->Stop();
  }
  // Draw distribution sanity at the default budget: the fuzzer must exercise
  // real kills and real shard exhaustion, not just happy paths.
  if (num_seeds >= 100) {
    EXPECT_GT(kills_applied, 20u) << "fuzz budget produced almost no committed kills";
    EXPECT_GT(unavailable_seen, 0u) << "no schedule ever exhausted a shard";
  }
}

}  // namespace
}  // namespace dgcl
