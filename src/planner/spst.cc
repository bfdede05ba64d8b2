#include "planner/spst.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/logging.h"
#include "common/rng.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One shortest-path search over the (device, depth) layered graph, routing
// `units` vertex embeddings at once (a whole class chunk).
//
// Sources: devices already in the tree, at their recorded depths, distance 0.
// Targets: any device whose bit is set in `remaining`, at any depth.
// An edge out of depth k is weighted with the cost-model blow-up of adding
// the chunk's units on that link at stage k. Devices already in the tree
// cannot be re-entered.
//
// On success appends the path's edges to `tree_edges`, records new depths in
// `depth_in_tree`, commits the units to `model` and returns the reached
// device; returns kInvalidId when no target is reachable within `max_depth`.
uint32_t GrowTreeOneStep(const Topology& topo, CostModel& model, double hop_epsilon,
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

  using QueueEntry = std::pair<double, uint32_t>;  // (distance, node)
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;
  for (uint32_t d = 0; d < num_devices; ++d) {
    if (depth_in_tree[d] != kInvalidId && depth_in_tree[d] <= max_depth) {
      uint32_t node = node_of(d, depth_in_tree[d]);
      dist[node] = 0.0;
      queue.push({0.0, node});
    }
  }

  // Epsilon scales with the units so chunks of different sizes tie-break
  // consistently (one unit at units = 1 reproduces the per-vertex weights).
  const double edge_epsilon = hop_epsilon * static_cast<double>(units);

  uint32_t target_node = kInvalidId;
  while (!queue.empty()) {
    auto [d_cost, node] = queue.top();
    queue.pop();
    if (d_cost > dist[node]) {
      continue;  // stale entry
    }
    const uint32_t device = node / layers;
    const uint32_t depth = node % layers;
    if ((remaining >> device) & 1) {
      target_node = node;
      break;  // first popped target is the overall nearest
    }
    if (depth == max_depth) {
      continue;
    }
    for (LinkId link_id : topo.LinksFrom(device)) {
      const Link& link = topo.link(link_id);
      if (depth_in_tree[link.dst] != kInvalidId) {
        continue;  // a tree is a tree: never enter a device twice
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

  // Backtrack links from target to a tree node, then re-order forward.
  std::vector<LinkId> path;
  uint32_t node = target_node;
  while (parent_node[node] != kInvalidId) {
    path.push_back(parent_link[node]);
    node = parent_node[node];
  }
  std::reverse(path.begin(), path.end());
  const uint32_t start_device = node / layers;

  // Splice out device loops. Because edge weights depend on the stage, the
  // layered search may find it "cheaper" to revisit a device at a deeper
  // layer; the spliced path delivers the same coverage at no higher cost
  // (dropping edges never increases any stage's load).
  std::vector<std::pair<uint32_t, LinkId>> walk;  // (device entered, via link)
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
  DGCL_CHECK(!walk.empty());

  // Commit: the stage of each edge is the depth of its source in the tree.
  uint32_t depth = depth_in_tree[start_device];
  for (const auto& [device, link_id] : walk) {
    ++depth;
    DGCL_CHECK_EQ(depth_in_tree[device], kInvalidId);
    depth_in_tree[device] = depth;
    tree_edges.push_back(TreeEdge{link_id, depth - 1});
    model.AddTransfer(link_id, depth - 1, units);
  }
  return walk.back().first;
}

// A planner work item: `count` vertices of one class, planned as one tree.
struct Chunk {
  uint32_t class_id = 0;
  uint32_t first = 0;
  uint32_t count = 0;
};

// Splits every class into chunks of at most `max_units` vertices (evenly, so
// a class of 300 at bound 256 becomes 150 + 150, not 256 + 44). max_units = 0
// degenerates to one single-vertex chunk per vertex, enumerated in ascending
// global vertex id — exactly the seed per-vertex work list.
std::vector<Chunk> BuildChunks(const CommClasses& classes, uint32_t max_units) {
  std::vector<Chunk> chunks;
  if (max_units == 0) {
    std::vector<std::pair<VertexId, Chunk>> per_vertex;
    for (uint32_t c = 0; c < classes.classes.size(); ++c) {
      const CommClass& cls = classes.classes[c];
      for (uint32_t i = 0; i < cls.vertices.size(); ++i) {
        per_vertex.emplace_back(cls.vertices[i], Chunk{c, i, 1});
      }
    }
    std::sort(per_vertex.begin(), per_vertex.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    chunks.reserve(per_vertex.size());
    for (auto& [vertex, chunk] : per_vertex) {
      (void)vertex;
      chunks.push_back(chunk);
    }
    return chunks;
  }
  for (uint32_t c = 0; c < classes.classes.size(); ++c) {
    const uint64_t weight = classes.classes[c].weight;
    if (weight == 0) {
      continue;
    }
    const uint64_t num_chunks = (weight + max_units - 1) / max_units;
    const uint64_t base = weight / num_chunks;
    const uint64_t remainder = weight % num_chunks;
    uint32_t first = 0;
    for (uint64_t k = 0; k < num_chunks; ++k) {
      const uint32_t count = static_cast<uint32_t>(base + (k < remainder ? 1 : 0));
      chunks.push_back(Chunk{c, first, count});
      first += count;
    }
  }
  return chunks;
}

// Shared read-only inputs of one PlanClasses invocation.
struct PlanContext {
  const CommClasses* classes = nullptr;
  const Topology* topo = nullptr;
  double hop_epsilon = 0.0;
  uint32_t capped_depth = 0;
  uint32_t full_depth = 0;
};

// Grows one chunk's whole tree against `model` (committing its traffic).
// `depth_in_tree` is caller-provided scratch sized to num_devices.
Status PlanChunkTree(const PlanContext& ctx, const Chunk& chunk, CostModel& model,
                     std::vector<uint32_t>& depth_in_tree, ClassTree& tree) {
  const CommClass& cls = ctx.classes->classes[chunk.class_id];
  tree.class_id = chunk.class_id;
  tree.first = chunk.first;
  tree.count = chunk.count;
  tree.edges.clear();
  std::fill(depth_in_tree.begin(), depth_in_tree.end(), kInvalidId);
  depth_in_tree[cls.source] = 0;
  DeviceMask remaining = cls.mask;
  while (remaining != 0) {
    uint32_t reached = GrowTreeOneStep(*ctx.topo, model, ctx.hop_epsilon, ctx.capped_depth,
                                       remaining, chunk.count, depth_in_tree, tree.edges);
    if (reached == kInvalidId && ctx.capped_depth < ctx.full_depth) {
      // Depth cap too tight for this tree shape; retry with the full bound.
      reached = GrowTreeOneStep(*ctx.topo, model, ctx.hop_epsilon, ctx.full_depth, remaining,
                                chunk.count, depth_in_tree, tree.edges);
    }
    if (reached == kInvalidId) {
      return Status::Internal("destination unreachable in communication topology");
    }
    remaining &= ~(DeviceMask{1} << reached);
  }
  return Status::Ok();
}

}  // namespace

Result<ClassPlan> SpstPlanner::PlanClasses(const CommClasses& classes, const Topology& topo,
                                           double bytes_per_unit) {
  if (classes.num_devices != topo.num_devices()) {
    return Status::InvalidArgument("relation/topology device count mismatch");
  }
  ClassPlan plan;
  plan.num_devices = classes.num_devices;
  plan.planner_name = name();
  if (classes.num_devices <= 1) {
    return plan;
  }

  PlanContext ctx;
  ctx.classes = &classes;
  ctx.topo = &topo;
  ctx.full_depth = classes.num_devices - 1;
  ctx.capped_depth = options_.max_tree_depth == 0
                         ? ctx.full_depth
                         : std::min(options_.max_tree_depth, ctx.full_depth);

  // Tie-break epsilon scaled to one embedding on the fastest connection, so
  // the plan is invariant under feature-dimension scaling.
  double max_bandwidth = 0.0;
  for (ConnId c = 0; c < topo.num_connections(); ++c) {
    max_bandwidth = std::max(max_bandwidth, topo.connection(c).bandwidth_gbps * 1e9);
  }
  ctx.hop_epsilon = max_bandwidth > 0.0
                        ? options_.hop_epsilon_fraction * bytes_per_unit / max_bandwidth
                        : 0.0;

  uint32_t max_units = options_.max_class_units;
  if (max_units > 0 && options_.min_chunks > 0) {
    const uint64_t adaptive = classes.TotalWeight() / options_.min_chunks;
    max_units = static_cast<uint32_t>(
        std::clamp<uint64_t>(adaptive, 1, options_.max_class_units));
  }
  std::vector<Chunk> order = BuildChunks(classes, max_units);
  if (options_.shuffle) {
    Rng rng(options_.shuffle_seed);
    rng.Shuffle(order);
  }
  plan.trees.reserve(order.size());
  DGCL_TSPAN1("planner", "plan_classes", "chunks", order.size());

  // Plan and commit chunk by chunk: each tree is grown against the model
  // that already carries every earlier chunk's traffic.
  CostModel model(topo, ctx.full_depth, bytes_per_unit);
  std::vector<uint32_t> depth_in_tree(classes.num_devices, kInvalidId);
  for (const Chunk& chunk : order) {
    ClassTree tree;
    DGCL_RETURN_IF_ERROR(PlanChunkTree(ctx, chunk, model, depth_in_tree, tree));
    plan.trees.push_back(std::move(tree));
  }
  plan.planned_cost_seconds = model.TotalSeconds();
  return plan;
}

}  // namespace dgcl
