#include "comm/plan_io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "planner/baselines.h"
#include "planner/spst.h"
#include "runtime/allgather_engine.h"
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
    f.graph = GenerateErdosRenyi(80, 240, rng);
    f.topo = BuildPaperTopology(gpus);
    HashPartitioner hash;
    f.relation = *BuildCommRelation(f.graph, *hash.Partition(f.graph, gpus));
    SpstPlanner spst;
    f.plan = CompilePlan(*spst.Plan(f.relation, f.topo, 256), f.topo);
    AssignBackwardSubstages(f.plan);
    return f;
  }
};

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("dgcl_plan_" + name)).string();
}

TEST(PlanIoTest, RoundTripPreservesEverything) {
  Fixture f = Fixture::Make(8, 1);
  std::string path = TempPath("roundtrip.bin");
  ASSERT_TRUE(SaveCompiledPlan(f.plan, f.topo, path).ok());
  auto loaded = LoadCompiledPlan(f.topo, path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_devices, f.plan.num_devices);
  EXPECT_EQ(loaded->num_stages, f.plan.num_stages);
  ASSERT_EQ(loaded->ops.size(), f.plan.ops.size());
  for (size_t i = 0; i < f.plan.ops.size(); ++i) {
    EXPECT_EQ(loaded->ops[i].link, f.plan.ops[i].link);
    EXPECT_EQ(loaded->ops[i].src, f.plan.ops[i].src);
    EXPECT_EQ(loaded->ops[i].dst, f.plan.ops[i].dst);
    EXPECT_EQ(loaded->ops[i].stage, f.plan.ops[i].stage);
    EXPECT_EQ(loaded->ops[i].substage, f.plan.ops[i].substage);
    EXPECT_EQ(loaded->ops[i].vertices, f.plan.ops[i].vertices);
  }
  // Loaded plan must still validate against the same relation.
  EXPECT_TRUE(ValidateCompiledPlan(*loaded, f.relation, f.topo).ok());
}

TEST(PlanIoTest, RejectsDifferentTopology) {
  Fixture f = Fixture::Make(8, 2);
  std::string path = TempPath("wrongtopo.bin");
  ASSERT_TRUE(SaveCompiledPlan(f.plan, f.topo, path).ok());
  Topology other = BuildPaperTopology(4);
  auto loaded = LoadCompiledPlan(other, path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PlanIoTest, RejectsGarbage) {
  std::string path = TempPath("garbage.bin");
  std::ofstream(path) << "not a plan";
  Topology topo = BuildPaperTopology(4);
  auto loaded = LoadCompiledPlan(topo, path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.ok());
}

TEST(PlanIoTest, MissingFileIsNotFound) {
  Topology topo = BuildPaperTopology(4);
  EXPECT_EQ(LoadCompiledPlan(topo, "/nonexistent/plan.bin").status().code(),
            StatusCode::kNotFound);
}

TEST(PlanIoTest, RejectsTruncatedPayload) {
  Fixture f = Fixture::Make(4, 3);
  std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(SaveCompiledPlan(f.plan, f.topo, path).ok());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8);
  auto loaded = LoadCompiledPlan(f.topo, path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.ok());
}

// Writes a 32-byte plan header matching `topo`, followed by `tail`.
std::string WriteCraftedPlan(const std::string& name, const Topology& topo, uint64_t num_ops,
                             const std::string& tail, uint32_t num_stages = 1) {
  const char magic[8] = {'D', 'G', 'C', 'L', 'P', '1', 0, 0};
  const uint32_t fields[4] = {topo.num_devices(), topo.num_links(), topo.num_connections(),
                              num_stages};
  std::string bytes(magic, sizeof(magic));
  bytes.append(reinterpret_cast<const char*>(fields), sizeof(fields));
  bytes.append(reinterpret_cast<const char*>(&num_ops), sizeof(num_ops));
  bytes += tail;
  const std::string path = TempPath(name);
  std::ofstream(path, std::ios::binary) << bytes;
  return path;
}

TEST(PlanIoTest, RejectsOpCountBeyondFileSize) {
  Topology topo = BuildPaperTopology(4);
  const std::string path =
      WriteCraftedPlan("huge_ops.bin", topo, uint64_t{1} << 61, /*tail=*/"");
  auto loaded = LoadCompiledPlan(topo, path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("op count"), std::string::npos);
}

TEST(PlanIoTest, RejectsOpVertexCountBeyondFileSize) {
  Topology topo = BuildPaperTopology(4);
  // One op on link 0, stage 0, substage 0, claiming 2^60 vertices.
  const uint32_t op_fields[3] = {0, 0, 0};
  const uint64_t count = uint64_t{1} << 60;
  std::string op(reinterpret_cast<const char*>(op_fields), sizeof(op_fields));
  op.append(reinterpret_cast<const char*>(&count), sizeof(count));
  const std::string path = WriteCraftedPlan("huge_vertices.bin", topo, 1, op);
  auto loaded = LoadCompiledPlan(topo, path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("vertex count"), std::string::npos);
}

// One op on link 0 at `stage`, substage 0, with a single vertex 0.
std::string OneOp(uint32_t stage) {
  const uint32_t op_fields[3] = {0, stage, 0};
  const uint64_t count = 1;
  const VertexId vertex = 0;
  std::string op(reinterpret_cast<const char*>(op_fields), sizeof(op_fields));
  op.append(reinterpret_cast<const char*>(&count), sizeof(count));
  op.append(reinterpret_cast<const char*>(&vertex), sizeof(vertex));
  return op;
}

// The header's stage count sizes per-stage tables downstream, so it must be
// the one the ops imply (largest op stage + 1, 0 without ops).
TEST(PlanIoTest, RejectsStageCountTheOpsDoNotUse) {
  Topology topo = BuildPaperTopology(4);
  for (uint32_t num_stages : {1u, 1'000'000u, 0xFFFFFFFFu}) {
    const std::string path = WriteCraftedPlan("stages_no_ops.bin", topo, 0, "", num_stages);
    auto loaded = LoadCompiledPlan(topo, path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << num_stages;
    EXPECT_NE(loaded.status().message().find("stage count"), std::string::npos) << num_stages;
  }
  {  // one op at stage 0 claiming a second, empty stage
    const std::string path = WriteCraftedPlan("stages_one_op.bin", topo, 1, OneOp(0), 2);
    auto loaded = LoadCompiledPlan(topo, path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  {  // the counts the ops imply load
    std::string path = WriteCraftedPlan("stages_empty.bin", topo, 0, "", 0);
    auto empty = LoadCompiledPlan(topo, path);
    std::remove(path.c_str());
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    EXPECT_EQ(empty->num_stages, 0u);
    path = WriteCraftedPlan("stages_two.bin", topo, 1, OneOp(1), 2);
    auto two = LoadCompiledPlan(topo, path);
    std::remove(path.c_str());
    ASSERT_TRUE(two.ok()) << two.status().ToString();
    EXPECT_EQ(two->num_stages, 2u);
  }
}

// A file that delivers a vertex to a device twice parses (the format says
// nothing about delivery), but the engine refuses to arm it: the second
// arrival would send that device's gradient home twice.
TEST(PlanIoTest, EngineRejectsLoadedPlanWithDuplicateDelivery) {
  Rng rng(5);
  const CsrGraph graph = GenerateErdosRenyi(40, 120, rng);
  const Topology topo = BuildPaperTopology(4);
  HashPartitioner hash;
  const CommRelation relation = *BuildCommRelation(graph, *hash.Partition(graph, 4));
  PeerToPeerPlanner p2p;
  CompiledPlan plan = CompilePlan(*p2p.Plan(relation, topo, 256), topo);
  AssignBackwardSubstages(plan);
  ASSERT_EQ(plan.num_stages, 1u);
  ASSERT_FALSE(plan.ops.empty());

  // The P2P plan's ops as written, then one stage-1 op that repeats the
  // first op's first vertex over the same link.
  auto op_bytes = [](LinkId link, uint32_t stage, const std::vector<VertexId>& vertices,
                     uint32_t substage = 0) {
    const uint32_t op_fields[3] = {link, stage, substage};
    const uint64_t count = vertices.size();
    std::string op(reinterpret_cast<const char*>(op_fields), sizeof(op_fields));
    op.append(reinterpret_cast<const char*>(&count), sizeof(count));
    op.append(reinterpret_cast<const char*>(vertices.data()), vertices.size() * sizeof(VertexId));
    return op;
  };
  std::string tail;
  for (const TransferOp& op : plan.ops) {
    tail += op_bytes(op.link, op.stage, op.vertices, op.substage);
  }
  {  // as planned: loads and arms
    const std::string path = WriteCraftedPlan("p2p.bin", topo, plan.ops.size(), tail);
    auto loaded = LoadCompiledPlan(topo, path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(AllgatherEngine::Create(relation, std::move(*loaded), topo).ok());
  }
  const TransferOp& first = plan.ops.front();
  tail += op_bytes(first.link, 1, {first.vertices.front()});
  const std::string path =
      WriteCraftedPlan("duplicate_delivery.bin", topo, plan.ops.size() + 1, tail, 2);
  auto loaded = LoadCompiledPlan(topo, path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto engine = AllgatherEngine::Create(relation, std::move(*loaded), topo);
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << engine.status().ToString();
}

// A file whose sub-stages were lost (every op at sub-stage 0) parses and
// passes the delivery check, but its backward pass would have two peers add
// into one row at once, so the engine refuses to arm it with a Status.
TEST(PlanIoTest, EngineRejectsLoadedPlanWithZeroedSubstages) {
  Fixture f = Fixture::Make(8, 4);
  ASSERT_GT(f.plan.MaxSubstages(), 1u) << "the plan needs a vertex sent to two peers in a stage";
  const std::string split_path = TempPath("split.bin");
  ASSERT_TRUE(SaveCompiledPlan(f.plan, f.topo, split_path).ok());
  auto split = LoadCompiledPlan(f.topo, split_path);
  std::remove(split_path.c_str());
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_TRUE(AllgatherEngine::Create(f.relation, std::move(*split), f.topo).ok());

  CompiledPlan zeroed = f.plan;
  for (TransferOp& op : zeroed.ops) {
    op.substage = 0;
  }
  const std::string path = TempPath("zeroed_substages.bin");
  ASSERT_TRUE(SaveCompiledPlan(zeroed, f.topo, path).ok());
  auto loaded = LoadCompiledPlan(f.topo, path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(ValidateCompiledPlan(*loaded, f.relation, f.topo).ok());
  auto engine = AllgatherEngine::Create(f.relation, std::move(*loaded), f.topo);
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << engine.status().ToString();
  EXPECT_NE(engine.status().message().find("AssignBackwardSubstages"), std::string::npos)
      << engine.status().ToString();

  // A sub-stage no split produces sizes nothing: Create answers with a
  // Status before building its per-round tables.
  for (uint32_t substage : {8u, 1'000'000u, 0xFFFFFFFFu}) {
    CompiledPlan wild = f.plan;
    wild.ops.back().substage = substage;
    auto armed = AllgatherEngine::Create(f.relation, std::move(wild), f.topo);
    EXPECT_EQ(armed.status().code(), StatusCode::kInvalidArgument) << substage;
    EXPECT_NE(armed.status().message().find("device count"), std::string::npos) << substage;
  }
}

}  // namespace
}  // namespace dgcl
