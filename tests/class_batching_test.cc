// Regression tests for the class-batched planning pipeline:
//  * max_class_units = 0 reproduces the seed per-vertex SPST planner exactly
//    (the reference implementation below is the pre-refactor algorithm,
//    kept verbatim so the equivalence stays checkable);
//  * the planner's heap-free search grows every class tree exactly as that
//    reference Dijkstra search does, chunk weights included, on random
//    topologies with multi-hop links and skewed bandwidths;
//  * batched plans at the default chunk size pass plan validation, compile
//    byte-identically via either CompilePlan overload, and deliver correct
//    embeddings through the allgather engine;
//  * chunking respects the configured bounds.

#include "planner/spst.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>
#include <string>

#include <gtest/gtest.h>

#include "comm/compiled_plan.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "partition/multilevel.h"
#include "partition/partitioner.h"
#include "planner/cost_model.h"
#include "runtime/allgather_engine.h"
#include "random_topology.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

// ---- Reference: the seed per-vertex SPST planner (pre-batching) -----------

constexpr double kInf = std::numeric_limits<double>::infinity();

uint32_t SeedGrowTreeOneStep(const Topology& topo, CostModel& model, double hop_epsilon,
                             uint32_t max_depth, DeviceMask remaining, uint64_t units,
                             std::vector<uint32_t>& depth_in_tree,
                             std::vector<TreeEdge>& tree_edges) {
  const uint32_t num_devices = topo.num_devices();
  const uint32_t layers = max_depth + 1;
  const uint32_t num_nodes = num_devices * layers;
  auto node_of = [layers](uint32_t device, uint32_t depth) { return device * layers + depth; };

  std::vector<double> dist(num_nodes, kInf);
  std::vector<uint32_t> parent_node(num_nodes, kInvalidId);
  std::vector<LinkId> parent_link(num_nodes, kInvalidId);

  using QueueEntry = std::pair<double, uint32_t>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;
  for (uint32_t d = 0; d < num_devices; ++d) {
    if (depth_in_tree[d] != kInvalidId && depth_in_tree[d] <= max_depth) {
      uint32_t node = node_of(d, depth_in_tree[d]);
      dist[node] = 0.0;
      queue.push({0.0, node});
    }
  }

  const double edge_epsilon = hop_epsilon * static_cast<double>(units);

  uint32_t target_node = kInvalidId;
  while (!queue.empty()) {
    auto [d_cost, node] = queue.top();
    queue.pop();
    if (d_cost > dist[node]) {
      continue;
    }
    const uint32_t device = node / layers;
    const uint32_t depth = node % layers;
    if ((remaining >> device) & 1) {
      target_node = node;
      break;
    }
    if (depth == max_depth) {
      continue;
    }
    for (LinkId link_id : topo.LinksFrom(device)) {
      const Link& link = topo.link(link_id);
      if (depth_in_tree[link.dst] != kInvalidId) {
        continue;
      }
      const uint32_t next = node_of(link.dst, depth + 1);
      const double weight = model.IncrementalCost(link_id, depth, units) + edge_epsilon;
      if (dist[node] + weight < dist[next]) {
        dist[next] = dist[node] + weight;
        parent_node[next] = node;
        parent_link[next] = link_id;
        queue.push({dist[next], next});
      }
    }
  }
  if (target_node == kInvalidId) {
    return kInvalidId;
  }

  std::vector<LinkId> path;
  uint32_t node = target_node;
  while (parent_node[node] != kInvalidId) {
    path.push_back(parent_link[node]);
    node = parent_node[node];
  }
  std::reverse(path.begin(), path.end());
  const uint32_t start_device = node / layers;

  std::vector<std::pair<uint32_t, LinkId>> walk;
  for (LinkId link_id : path) {
    const uint32_t dst = topo.link(link_id).dst;
    if (dst == start_device) {
      walk.clear();
      continue;
    }
    bool already_on_path = false;
    for (size_t i = 0; i < walk.size(); ++i) {
      if (walk[i].first == dst) {
        walk.resize(i + 1);
        already_on_path = true;
        break;
      }
    }
    if (!already_on_path) {
      walk.emplace_back(dst, link_id);
    }
  }
  EXPECT_FALSE(walk.empty());

  uint32_t depth = depth_in_tree[start_device];
  for (const auto& [device, link_id] : walk) {
    ++depth;
    depth_in_tree[device] = depth;
    tree_edges.push_back(TreeEdge{link_id, depth - 1});
    model.AddTransfer(link_id, depth - 1, units);
  }
  return walk.back().first;
}

// The seed planner's tree loop: grows one tree from `source` to every device
// of `mask`, retrying a search at full depth when the cap is too tight.
// False when a destination is unreachable.
bool SeedGrowTree(const Topology& topo, CostModel& model, double hop_epsilon,
                  uint32_t max_tree_depth, uint32_t source, DeviceMask mask, uint64_t units,
                  std::vector<TreeEdge>& tree_edges) {
  const uint32_t full_depth = topo.num_devices() - 1;
  const uint32_t capped_depth =
      max_tree_depth == 0 ? full_depth : std::min(max_tree_depth, full_depth);
  std::vector<uint32_t> depth_in_tree(topo.num_devices(), kInvalidId);
  depth_in_tree[source] = 0;
  DeviceMask remaining = mask;
  while (remaining != 0) {
    uint32_t reached = SeedGrowTreeOneStep(topo, model, hop_epsilon, capped_depth, remaining,
                                           units, depth_in_tree, tree_edges);
    if (reached == kInvalidId && capped_depth < full_depth) {
      reached = SeedGrowTreeOneStep(topo, model, hop_epsilon, full_depth, remaining, units,
                                    depth_in_tree, tree_edges);
    }
    if (reached == kInvalidId) {
      return false;
    }
    remaining &= ~(DeviceMask{1} << reached);
  }
  return true;
}

double SeedHopEpsilon(const Topology& topo, double bytes_per_unit) {
  double max_bandwidth = 0.0;
  for (ConnId c = 0; c < topo.num_connections(); ++c) {
    max_bandwidth = std::max(max_bandwidth, topo.connection(c).bandwidth_gbps * 1e9);
  }
  return max_bandwidth > 0.0 ? kHopEpsilonFraction * bytes_per_unit / max_bandwidth : 0.0;
}

Result<CommPlan> SeedSpstPlan(const CommRelation& relation, const Topology& topo,
                              double bytes_per_unit, const SpstOptions& options) {
  if (relation.num_devices != topo.num_devices()) {
    return Status::InvalidArgument("relation/topology device count mismatch");
  }
  CommPlan plan;
  plan.num_devices = relation.num_devices;
  if (relation.num_devices <= 1) {
    return plan;
  }

  CostModel model(topo, relation.num_devices - 1, bytes_per_unit);
  const double hop_epsilon = SeedHopEpsilon(topo, bytes_per_unit);

  std::vector<VertexId> order = relation.VerticesWithDestinations();
  if (options.shuffle) {
    Rng rng(options.shuffle_seed);
    rng.Shuffle(order);
  }
  plan.trees.reserve(order.size());

  for (VertexId u : order) {
    CommTree tree;
    tree.vertex = u;
    if (!SeedGrowTree(topo, model, hop_epsilon, options.max_tree_depth, relation.source[u],
                      relation.dest_mask[u], 1, tree.edges)) {
      return Status::Internal("destination unreachable in communication topology");
    }
    plan.trees.push_back(std::move(tree));
  }
  return plan;
}

// The reference search applied to a class plan's work list: regrows each
// tree of `work` (same class, same chunk weight, same order) against a fresh
// cost model, and reports the model's total like PlanClasses does.
ClassPlan SeedRegrowClassPlan(const CommClasses& classes, const Topology& topo,
                              double bytes_per_unit, uint32_t max_tree_depth,
                              const ClassPlan& work) {
  ClassPlan plan;
  plan.num_devices = work.num_devices;
  CostModel model(topo, topo.num_devices() - 1, bytes_per_unit);
  const double hop_epsilon = SeedHopEpsilon(topo, bytes_per_unit);
  for (const ClassTree& item : work.trees) {
    const CommClass& cls = classes.classes[item.class_id];
    ClassTree tree;
    tree.class_id = item.class_id;
    tree.first = item.first;
    tree.count = item.count;
    EXPECT_TRUE(SeedGrowTree(topo, model, hop_epsilon, max_tree_depth, cls.source, cls.mask,
                             item.count, tree.edges));
    plan.trees.push_back(std::move(tree));
  }
  plan.planned_cost_seconds = model.TotalSeconds();
  return plan;
}

// ----------------------------------------------------------------------------

struct Workload {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;

  static Workload Make(uint32_t gpus, uint32_t vertices, uint64_t seed) {
    Workload w;
    Rng rng(seed);
    w.graph = GenerateErdosRenyi(vertices, vertices * 3, rng);
    w.topo = BuildPaperTopology(gpus);
    MultilevelPartitioner metis;
    w.relation = *BuildCommRelation(w.graph, *metis.Partition(w.graph, gpus));
    return w;
  }
};

void SortTreesByVertex(CommPlan& plan) {
  std::sort(plan.trees.begin(), plan.trees.end(),
            [](const CommTree& a, const CommTree& b) { return a.vertex < b.vertex; });
}

TEST(ClassBatchingTest, PerVertexChunkingReproducesSeedPlanner) {
  for (uint32_t gpus : {2u, 4u, 8u}) {
    for (uint64_t seed : {11u, 12u, 13u}) {
      Workload w = Workload::Make(gpus, 80, seed);
      SpstOptions per_vertex;
      per_vertex.max_class_units = 0;
      SpstPlanner batched(per_vertex);
      auto batched_plan = batched.Plan(w.relation, w.topo, 256.0);
      auto seed_plan = SeedSpstPlan(w.relation, w.topo, 256.0, per_vertex);
      ASSERT_TRUE(batched_plan.ok());
      ASSERT_TRUE(seed_plan.ok());
      // Expanded class plans list trees in vertex order; normalize the seed
      // plan (trees in shuffled processing order) the same way.
      SortTreesByVertex(*seed_plan);
      ASSERT_EQ(batched_plan->trees.size(), seed_plan->trees.size());
      for (size_t i = 0; i < seed_plan->trees.size(); ++i) {
        const CommTree& a = batched_plan->trees[i];
        const CommTree& b = seed_plan->trees[i];
        EXPECT_EQ(a.vertex, b.vertex);
        ASSERT_EQ(a.edges.size(), b.edges.size());
        for (size_t e = 0; e < a.edges.size(); ++e) {
          EXPECT_EQ(a.edges[e].link, b.edges[e].link);
          EXPECT_EQ(a.edges[e].stage, b.edges[e].stage);
        }
      }
      EXPECT_DOUBLE_EQ(EvaluatePlanCost(*batched_plan, w.topo, 256.0),
                       EvaluatePlanCost(*seed_plan, w.topo, 256.0));
    }
  }
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// The planner's search against the reference Dijkstra search, tree by tree
// and bit by bit, over the options that change what a search sees: the depth
// cap (1 forces the full-depth retry on ring-like topologies, 0 is no cap)
// and the chunk bound (0 per vertex, 4 fixed, default adaptive).
TEST(ClassBatchingTest, SearchMatchesReferenceDijkstra) {
  struct Case {
    std::string name;
    Topology topo;
  };
  std::vector<Case> cases;
  for (uint32_t devices : {2u, 3u, 5u, 8u, 12u, 16u}) {
    for (uint64_t seed : {1u, 2u}) {
      Rng rng(devices * 100 + seed);
      Case c{"random" + std::to_string(devices) + "_" + std::to_string(seed), Topology{}};
      BuildRandomTopology(devices, rng, c.topo, /*bandwidth_ratio=*/100.0);
      cases.push_back(std::move(c));
    }
  }
  for (uint32_t gpus : {4u, 8u, 16u}) {
    cases.push_back({"paper" + std::to_string(gpus), BuildPaperTopology(gpus)});
  }

  constexpr uint32_t kDefaultBound = SpstOptions{}.max_class_units;
  for (const Case& c : cases) {
    const uint32_t devices = c.topo.num_devices();
    Rng rng(devices);
    CsrGraph graph = GenerateErdosRenyi(1200, 4800, rng);
    RandomPartitioner partitioner(devices);
    CommRelation relation = *BuildCommRelation(graph, *partitioner.Partition(graph, devices));
    CommClasses classes = BuildCommClasses(relation);
    for (uint32_t depth : {1u, 2u, 4u, 0u}) {
      for (uint32_t bound : {0u, 4u, kDefaultBound}) {
        SCOPED_TRACE(c.name + " depth " + std::to_string(depth) + " bound " +
                     std::to_string(bound));
        SpstOptions options;
        options.max_tree_depth = depth;
        options.max_class_units = bound;
        if (bound != kDefaultBound) {
          options.min_chunks = 0;
        }
        auto plan = SpstPlanner(options).PlanClasses(classes, c.topo, 256.0);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        const ClassPlan reference =
            SeedRegrowClassPlan(classes, c.topo, 256.0, depth, *plan);
        ASSERT_EQ(plan->trees.size(), reference.trees.size());
        for (size_t t = 0; t < reference.trees.size(); ++t) {
          const ClassTree& got = plan->trees[t];
          const ClassTree& want = reference.trees[t];
          ASSERT_EQ(got.edges.size(), want.edges.size()) << "tree " << t;
          for (size_t e = 0; e < want.edges.size(); ++e) {
            ASSERT_EQ(got.edges[e].link, want.edges[e].link) << "tree " << t << " edge " << e;
            ASSERT_EQ(got.edges[e].stage, want.edges[e].stage) << "tree " << t << " edge " << e;
          }
        }
        EXPECT_EQ(Bits(plan->planned_cost_seconds), Bits(reference.planned_cost_seconds));
      }
    }
  }
}

TEST(ClassBatchingTest, BatchedPlanValidatesAndCompilesIdentically) {
  for (uint32_t gpus : {4u, 8u}) {
    for (uint64_t seed : {21u, 22u}) {
      Workload w = Workload::Make(gpus, 120, seed);
      CommClasses classes = BuildCommClasses(w.relation);
      SpstPlanner planner;  // default batched options
      auto class_plan = planner.PlanClasses(classes, w.topo, 256.0);
      ASSERT_TRUE(class_plan.ok());
      CommPlan expanded = ExpandClassPlan(*class_plan, classes);
      ASSERT_TRUE(ValidatePlan(expanded, w.relation, w.topo).ok());

      CompiledPlan direct = CompilePlan(*class_plan, classes, w.topo);
      CompiledPlan via_expansion = CompilePlan(expanded, w.topo);
      EXPECT_EQ(direct.num_devices, via_expansion.num_devices);
      EXPECT_EQ(direct.num_stages, via_expansion.num_stages);
      ASSERT_EQ(direct.ops.size(), via_expansion.ops.size());
      for (size_t i = 0; i < direct.ops.size(); ++i) {
        EXPECT_EQ(direct.ops[i].link, via_expansion.ops[i].link);
        EXPECT_EQ(direct.ops[i].src, via_expansion.ops[i].src);
        EXPECT_EQ(direct.ops[i].dst, via_expansion.ops[i].dst);
        EXPECT_EQ(direct.ops[i].stage, via_expansion.ops[i].stage);
        EXPECT_EQ(direct.ops[i].vertices, via_expansion.ops[i].vertices);
      }
      EXPECT_EQ(direct.ops_by_src, via_expansion.ops_by_src);
      EXPECT_EQ(direct.ops_by_dst, via_expansion.ops_by_dst);
      EXPECT_TRUE(ValidateCompiledPlan(direct, w.relation, w.topo).ok());
    }
  }
}

TEST(ClassBatchingTest, BatchedPlanDeliversThroughEngine) {
  Workload w = Workload::Make(8, 100, 33);
  CommClasses classes = BuildCommClasses(w.relation);
  SpstPlanner planner;
  auto class_plan = planner.PlanClasses(classes, w.topo, 64.0);
  ASSERT_TRUE(class_plan.ok());
  CompiledPlan compiled = CompilePlan(*class_plan, classes, w.topo);
  AssignBackwardSubstages(compiled);
  // Create() revalidates delivery and causality.
  auto engine = AllgatherEngine::Create(w.relation, compiled, w.topo);
  ASSERT_TRUE(engine.ok());

  const uint32_t dim = 3;
  std::vector<EmbeddingMatrix> local;
  for (uint32_t d = 0; d < w.relation.num_devices; ++d) {
    const auto& locals = w.relation.local_vertices[d];
    EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), dim);
    for (uint32_t i = 0; i < locals.size(); ++i) {
      for (uint32_t c = 0; c < dim; ++c) {
        m.Row(i)[c] = static_cast<float>(locals[i] * 1000 + c);
      }
    }
    local.push_back(std::move(m));
  }
  auto result = engine->Forward(local);
  ASSERT_TRUE(result.ok());
  for (uint32_t d = 0; d < w.relation.num_devices; ++d) {
    const auto& locals = w.relation.local_vertices[d];
    const auto& remotes = w.relation.remote_vertices[d];
    const EmbeddingMatrix& m = (*result)[d];
    ASSERT_GE(m.rows, locals.size() + remotes.size());
    for (uint32_t i = 0; i < remotes.size(); ++i) {
      for (uint32_t c = 0; c < dim; ++c) {
        ASSERT_EQ(m.Row(static_cast<uint32_t>(locals.size()) + i)[c],
                  static_cast<float>(remotes[i] * 1000 + c));
      }
    }
  }
}

TEST(ClassBatchingTest, ChunkBoundsAreRespected) {
  Workload w = Workload::Make(8, 200, 44);
  CommClasses classes = BuildCommClasses(w.relation);
  SpstOptions opts;
  opts.max_class_units = 16;
  opts.min_chunks = 0;  // use the bound verbatim
  SpstPlanner planner(opts);
  auto class_plan = planner.PlanClasses(classes, w.topo, 256.0);
  ASSERT_TRUE(class_plan.ok());
  // Each tree carries at most 16 units; per class the chunks cover
  // [0, weight) contiguously, each vertex exactly once.
  std::vector<std::vector<char>> covered(classes.classes.size());
  for (size_t c = 0; c < classes.classes.size(); ++c) {
    covered[c].assign(classes.classes[c].vertices.size(), 0);
  }
  for (const ClassTree& tree : class_plan->trees) {
    ASSERT_LT(tree.class_id, classes.classes.size());
    EXPECT_GE(tree.count, 1u);
    EXPECT_LE(tree.count, 16u);
    for (uint32_t i = tree.first; i < tree.first + tree.count; ++i) {
      ASSERT_LT(i, covered[tree.class_id].size());
      EXPECT_EQ(covered[tree.class_id][i], 0);
      covered[tree.class_id][i] = 1;
    }
  }
  for (const auto& bits : covered) {
    for (char bit : bits) {
      EXPECT_EQ(bit, 1);
    }
  }
}

TEST(ClassBatchingTest, AdaptiveFloorShrinksChunksOnSmallWorkloads) {
  Workload w = Workload::Make(4, 60, 55);
  CommClasses classes = BuildCommClasses(w.relation);
  SpstOptions opts;  // defaults: max_class_units = 256, min_chunks = 2048
  SpstPlanner planner(opts);
  auto class_plan = planner.PlanClasses(classes, w.topo, 256.0);
  ASSERT_TRUE(class_plan.ok());
  // total weight < min_chunks, so the adaptive bound clamps to 1 unit and
  // the plan degrades to per-vertex granularity.
  ASSERT_LT(classes.TotalWeight(), 2048u);
  EXPECT_EQ(class_plan->trees.size(), classes.TotalWeight());
  for (const ClassTree& tree : class_plan->trees) {
    EXPECT_EQ(tree.count, 1u);
  }
}

}  // namespace
}  // namespace dgcl
