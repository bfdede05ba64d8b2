#include "planner/spst.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The tree-growing search of one PlanClasses call. Its scratch and its
// weight cache are allocated once and serve every search of the call.
//
// Each search runs over the (device, depth) layered graph, routing `units`
// vertex embeddings at once (a whole class chunk). Sources: devices already
// in the tree, at their recorded depths, distance 0. Targets: any device
// whose bit is set in `remaining`, at any depth. An edge out of depth k is
// weighted with the cost-model blow-up of adding the chunk's units on that
// link at stage k, plus the tie-break epsilon. Devices already in the tree
// cannot be re-entered.
//
// The search returns exactly the path a binary-heap Dijkstra over that graph
// returns. Every weight is at least the epsilon, which is far above the
// rounding error of any distance, so Dijkstra pops nodes in ascending
// (distance, node id) order, node id = device * layers + depth, and stops at
// the first target it pops. Edges only go one depth deeper, so the graph is a
// DAG and is relaxed one depth at a time, with no heap:
//  * a node is expanded only while its distance plus the epsilon stays
//    within the cheapest distance any relaxation gave a target, so neither a
//    target nor anything Dijkstra pops after its target is expanded;
//  * a relaxation replaces a parent on a strictly shorter distance, or on an
//    equal distance from a parent of lower (distance, node id) key: Dijkstra
//    keeps the first parent it pops among equals;
//  * the chosen target is the one with the least (distance, node id) key.
//
// Edge weights come from a [stage][link] cache tagged with the units each
// entry was computed for. A commit of link L at stage k clears all of stage k
// when it raised the stage's bottleneck (every weight there is measured from
// it), and otherwise only the stage-k entries of links sharing a hop with L;
// no other weight changes, so a cached weight is bit-identical to a fresh
// CostModel::IncrementalCost.
class TreeSearch {
 public:
  TreeSearch(const Topology& topo, CostModel& model, double hop_epsilon)
      : topo_(topo),
        model_(model),
        hop_epsilon_(hop_epsilon),
        num_devices_(topo.num_devices()),
        num_links_(topo.num_links()),
        links_out_(topo.num_devices(), 0),
        link_to_(static_cast<size_t>(num_devices_) * num_devices_, kInvalidId),
        links_through_(topo.num_connections()),
        cache_(static_cast<size_t>(model.max_stages()) * topo.num_links()) {
    for (LinkId l = 0; l < num_links_; ++l) {
      const Link& link = topo.link(l);
      links_out_[link.src] |= DeviceMask{1} << link.dst;
      link_to_[link.src * num_devices_ + link.dst] = l;
      for (ConnId hop : link.hops) {
        links_through_[hop].push_back(l);
      }
    }
    const size_t nodes = static_cast<size_t>(num_devices_) * (model.max_stages() + 1);
    dist_.resize(nodes);
    parent_node_.resize(nodes);
    parent_link_.resize(nodes);
  }

  // One search within `max_depth`. On success appends the path's edges to
  // `tree_edges`, records new depths in `depth_in_tree`, commits the units
  // to the model and returns the reached device; returns kInvalidId when no
  // target is reachable.
  uint32_t GrowTreeOneStep(uint32_t max_depth, DeviceMask remaining, uint32_t units,
                           std::vector<uint32_t>& depth_in_tree,
                           std::vector<TreeEdge>& tree_edges);

  uint64_t searches() const { return searches_; }
  uint64_t weight_evals() const { return weight_evals_; }

 private:
  struct CachedWeight {
    uint32_t units = 0;  // 0: stale
    double weight = 0.0;
  };

  double Weight(LinkId link, uint32_t stage, uint32_t units, double edge_epsilon) {
    CachedWeight& entry = cache_[static_cast<size_t>(stage) * num_links_ + link];
    if (entry.units != units) {
      entry.units = units;
      entry.weight = model_.IncrementalCost(link, stage, units) + edge_epsilon;
      ++weight_evals_;
    }
    return entry.weight;
  }

  void Commit(LinkId link, uint32_t stage, uint32_t units) {
    const double stage_before = model_.StageSeconds(stage);
    model_.AddTransfer(link, stage, units);
    CachedWeight* row = &cache_[static_cast<size_t>(stage) * num_links_];
    if (model_.StageSeconds(stage) != stage_before) {
      for (LinkId l = 0; l < num_links_; ++l) {
        row[l].units = 0;
      }
      return;
    }
    for (ConnId hop : topo_.link(link).hops) {
      for (LinkId l : links_through_[hop]) {
        row[l].units = 0;
      }
    }
  }

  const Topology& topo_;
  CostModel& model_;
  const double hop_epsilon_;
  const uint32_t num_devices_;
  const uint32_t num_links_;
  // Flat adjacency for the relaxation loop (Topology::LinkBetween's nested
  // vectors cost the planner about a fifth of its time there).
  std::vector<DeviceMask> links_out_;               // [src] -> devices it has a link to
  std::vector<LinkId> link_to_;                     // [src * num_devices + dst]
  std::vector<std::vector<LinkId>> links_through_;  // [conn] -> links with that hop
  std::vector<CachedWeight> cache_;                 // [stage * num_links + link]

  // Per-search scratch, indexed by slot = depth * num_devices + device.
  std::vector<double> dist_;
  std::vector<uint32_t> parent_node_;  // slot
  std::vector<LinkId> parent_link_;
  std::vector<LinkId> path_;
  std::vector<std::pair<uint32_t, LinkId>> walk_;  // (device entered, via link)

  uint64_t searches_ = 0;
  uint64_t weight_evals_ = 0;
};

uint32_t TreeSearch::GrowTreeOneStep(uint32_t max_depth, DeviceMask remaining, uint32_t units,
                                     std::vector<uint32_t>& depth_in_tree,
                                     std::vector<TreeEdge>& tree_edges) {
  ++searches_;
  const uint32_t n = num_devices_;
  const uint32_t layers = max_depth + 1;
  std::fill(dist_.begin(), dist_.begin() + static_cast<size_t>(layers) * n, kInf);
  DeviceMask in_tree = 0;
  for (uint32_t d = 0; d < n; ++d) {
    if (depth_in_tree[d] == kInvalidId) {
      continue;
    }
    in_tree |= DeviceMask{1} << d;
    if (depth_in_tree[d] <= max_depth) {
      const uint32_t slot = depth_in_tree[d] * n + d;
      dist_[slot] = 0.0;
      parent_node_[slot] = kInvalidId;
    }
  }

  // Epsilon scales with the units so chunks of different sizes tie-break
  // consistently (one unit at units = 1 reproduces the per-vertex weights).
  const double edge_epsilon = hop_epsilon_ * static_cast<double>(units);

  // Relax depth by depth. `target_bound` is the cheapest distance any
  // relaxation has given a target so far: the nearest target is at most
  // that far, and every edge costs at least edge_epsilon. A node at or past
  // the bound (a reached target among them) is never expanded: Dijkstra
  // would pop a target first.
  double target_bound = kInf;
  for (uint32_t depth = 0; depth < max_depth; ++depth) {
    const double* row = &dist_[static_cast<size_t>(depth) * n];
    double* next_row = &dist_[static_cast<size_t>(depth + 1) * n];
    for (uint32_t d = 0; d < n; ++d) {
      const double here = row[d];
      if (here == kInf || here + edge_epsilon > target_bound) {
        continue;
      }
      const uint32_t slot = depth * n + d;
      // A tree is a tree: never enter a device twice.
      for (DeviceMask out = links_out_[d] & ~in_tree; out != 0; out &= out - 1) {
        const uint32_t dst = static_cast<uint32_t>(std::countr_zero(out));
        const LinkId link_id = link_to_[d * n + dst];
        const double candidate = here + Weight(link_id, depth, units, edge_epsilon);
        // Parents at one depth are scanned in device (= node id) order, so a
        // later parent wins a tie only with a lower distance of its own.
        const uint32_t next = (depth + 1) * n + dst;
        if (candidate < next_row[dst] ||
            (candidate == next_row[dst] && candidate != kInf &&
             here < dist_[parent_node_[next]])) {
          next_row[dst] = candidate;
          parent_node_[next] = slot;
          parent_link_[next] = link_id;
          if ((remaining >> dst) & 1) {
            target_bound = std::min(target_bound, candidate);
          }
        }
      }
    }
  }

  // The target Dijkstra pops first: least distance, then least node id.
  // Scanning device-major visits nodes in id order, so the first least
  // distance wins.
  double best_dist = kInf;
  uint32_t best_slot = kInvalidId;
  for (DeviceMask targets = remaining; targets != 0; targets &= targets - 1) {
    const uint32_t d = static_cast<uint32_t>(std::countr_zero(targets));
    for (uint32_t depth = 0; depth <= max_depth; ++depth) {
      if (dist_[depth * n + d] < best_dist) {
        best_dist = dist_[depth * n + d];
        best_slot = depth * n + d;
      }
    }
  }
  if (best_slot == kInvalidId) {
    return kInvalidId;
  }

  // Backtrack links from target to a tree node, then re-order forward.
  path_.clear();
  uint32_t slot = best_slot;
  while (parent_node_[slot] != kInvalidId) {
    path_.push_back(parent_link_[slot]);
    slot = parent_node_[slot];
  }
  std::reverse(path_.begin(), path_.end());
  const uint32_t start_device = slot % n;

  // Splice out device loops. Because edge weights depend on the stage, the
  // layered search may find it "cheaper" to revisit a device at a deeper
  // layer; the spliced path delivers the same coverage at no higher cost
  // (dropping edges never increases any stage's load).
  walk_.clear();
  for (LinkId link_id : path_) {
    const uint32_t dst = topo_.link(link_id).dst;
    if (dst == start_device) {
      walk_.clear();
      continue;
    }
    bool already_on_path = false;
    for (size_t i = 0; i < walk_.size(); ++i) {
      if (walk_[i].first == dst) {
        walk_.resize(i + 1);
        already_on_path = true;
        break;
      }
    }
    if (!already_on_path) {
      walk_.emplace_back(dst, link_id);
    }
  }
  DGCL_CHECK(!walk_.empty());

  // Commit: the stage of each edge is the depth of its source in the tree.
  uint32_t depth = depth_in_tree[start_device];
  for (const auto& [device, link_id] : walk_) {
    ++depth;
    DGCL_CHECK_EQ(depth_in_tree[device], kInvalidId);
    depth_in_tree[device] = depth;
    tree_edges.push_back(TreeEdge{link_id, depth - 1});
    Commit(link_id, depth - 1, units);
  }
  return walk_.back().first;
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
  uint32_t capped_depth = 0;
  uint32_t full_depth = 0;
};

// Grows one chunk's whole tree (committing its traffic to the search's
// model). `depth_in_tree` is caller-provided scratch sized to num_devices.
Status PlanChunkTree(const PlanContext& ctx, const Chunk& chunk, TreeSearch& search,
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
    uint32_t reached = search.GrowTreeOneStep(ctx.capped_depth, remaining, chunk.count,
                                              depth_in_tree, tree.edges);
    if (reached == kInvalidId && ctx.capped_depth < ctx.full_depth) {
      // Depth cap too tight for this tree shape; retry with the full bound.
      reached = search.GrowTreeOneStep(ctx.full_depth, remaining, chunk.count, depth_in_tree,
                                       tree.edges);
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
  if (classes.num_devices > kMaxDevices) {
    return Status::InvalidArgument("more than kMaxDevices devices");
  }
  ClassPlan plan;
  plan.num_devices = classes.num_devices;
  plan.planner_name = name();
  if (classes.num_devices <= 1) {
    return plan;
  }

  PlanContext ctx;
  ctx.classes = &classes;
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
  const double hop_epsilon =
      max_bandwidth > 0.0 ? kHopEpsilonFraction * bytes_per_unit / max_bandwidth : 0.0;

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
  TreeSearch search(topo, model, hop_epsilon);
  std::vector<uint32_t> depth_in_tree(classes.num_devices, kInvalidId);
  for (const Chunk& chunk : order) {
    ClassTree tree;
    DGCL_RETURN_IF_ERROR(PlanChunkTree(ctx, chunk, search, depth_in_tree, tree));
    plan.trees.push_back(std::move(tree));
  }
  plan.planned_cost_seconds = model.TotalSeconds();
  DGCL_TCOUNT("planner", "spst.searches", search.searches());
  DGCL_TCOUNT("planner", "spst.weight_evals", search.weight_evals());
  return plan;
}

}  // namespace dgcl
