#include "comm/compiled_plan.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace dgcl {
namespace {

// (stage, link) -> vertex ids crossing there; shared by both compile paths.
using TransferGroups = std::map<std::pair<uint32_t, LinkId>, std::vector<VertexId>>;

constexpr size_t kCompileSerialThreshold = size_t{1} << 12;

// Builds TransferGroups over [0, n) tree indices: serial below the
// threshold, otherwise sharded into contiguous ranges on the shared pool
// with shard-local maps merged in shard order. GroupsToPlan sorts every
// group's vertices afterwards, so the merge order cannot affect the output
// — the parallel path is bit-identical to the serial scan.
template <typename AppendTree>
TransferGroups BuildTransferGroups(size_t n, const AppendTree& append_tree) {
  TransferGroups groups;
  ThreadPool& pool = ThreadPool::Shared();
  if (n < kCompileSerialThreshold || pool.num_threads() <= 1) {
    for (size_t t = 0; t < n; ++t) {
      append_tree(groups, t);
    }
    return groups;
  }
  const size_t num_shards = std::min<size_t>(pool.num_threads() + 1, n);
  std::vector<TransferGroups> shard_groups(num_shards);
  pool.ParallelFor(num_shards, [&](uint64_t shard) {
    TransferGroups& local = shard_groups[shard];
    const size_t begin = n * shard / num_shards;
    const size_t end = n * (shard + 1) / num_shards;
    for (size_t t = begin; t < end; ++t) {
      append_tree(local, t);
    }
  });
  for (TransferGroups& shard : shard_groups) {
    for (auto& [key, vertices] : shard) {
      auto& merged = groups[key];
      if (merged.empty()) {
        merged = std::move(vertices);
      } else {
        merged.insert(merged.end(), vertices.begin(), vertices.end());
      }
    }
  }
  return groups;
}

CompiledPlan GroupsToPlan(TransferGroups& groups, uint32_t num_devices, uint32_t num_stages,
                          const Topology& topo) {
  CompiledPlan out;
  out.num_devices = num_devices;
  out.num_stages = num_stages;
  out.ops.reserve(groups.size());
  for (auto& [key, vertices] : groups) {
    std::sort(vertices.begin(), vertices.end());
    TransferOp op;
    op.stage = key.first;
    op.link = key.second;
    op.src = topo.link(key.second).src;
    op.dst = topo.link(key.second).dst;
    op.vertices = std::move(vertices);
    out.ops.push_back(std::move(op));
  }

  out.ops_by_src.resize(out.num_devices);
  out.ops_by_dst.resize(out.num_devices);
  for (uint32_t i = 0; i < out.ops.size(); ++i) {
    out.ops_by_src[out.ops[i].src].push_back(i);
    out.ops_by_dst[out.ops[i].dst].push_back(i);
  }
  return out;
}

}  // namespace

CompiledPlan CompilePlan(const CommPlan& plan, const Topology& topo) {
  TransferGroups groups =
      BuildTransferGroups(plan.trees.size(), [&](TransferGroups& out, size_t t) {
        const CommTree& tree = plan.trees[t];
        for (const TreeEdge& e : tree.edges) {
          out[{e.stage, e.link}].push_back(tree.vertex);
        }
      });
  return GroupsToPlan(groups, plan.num_devices, plan.NumStages(), topo);
}

CompiledPlan CompilePlan(const ClassPlan& plan, const CommClasses& classes,
                         const Topology& topo) {
  TransferGroups groups =
      BuildTransferGroups(plan.trees.size(), [&](TransferGroups& out, size_t t) {
        const ClassTree& tree = plan.trees[t];
        DGCL_CHECK_LT(tree.class_id, classes.classes.size());
        const CommClass& cls = classes.classes[tree.class_id];
        DGCL_CHECK(tree.first + tree.count <= cls.vertices.size());
        const auto chunk_begin = cls.vertices.begin() + tree.first;
        const auto chunk_end = chunk_begin + tree.count;
        for (const TreeEdge& e : tree.edges) {
          auto& vertices = out[{e.stage, e.link}];
          vertices.insert(vertices.end(), chunk_begin, chunk_end);
        }
      });
  CompiledPlan compiled = GroupsToPlan(groups, plan.num_devices, plan.NumStages(), topo);
  compiled.planner_name = plan.planner_name;
  return compiled;
}

uint64_t CompiledPlan::TableBytes() const {
  uint64_t ids = 0;
  for (const TransferOp& op : ops) {
    ids += op.vertices.size();
  }
  // Send table on the sender plus receive table on the receiver.
  return 2 * ids * sizeof(VertexId);
}

uint32_t CompiledPlan::MaxSubstages() const {
  uint32_t max_sub = 0;
  for (const TransferOp& op : ops) {
    max_sub = std::max(max_sub, op.substage + 1);
  }
  return max_sub;
}

void AssignBackwardSubstages(CompiledPlan& plan) {
  // Backward: op (src -> dst, stage) carries gradients dst -> src, so the
  // *src* device aggregates. Per §6.2, each op's table is *partitioned*
  // across sub-stages such that, within a (receiving device, stage,
  // sub-stage), every vertex receives a gradient from at most one peer —
  // peers still stream concurrently inside a sub-stage, so the split costs
  // almost nothing while removing the need for atomic reductions.
  //
  // The k-th op (in deterministic order) carrying vertex v within a
  // (src, stage) group puts v's gradient in sub-stage k.
  std::map<std::pair<DeviceId, uint32_t>, std::vector<uint32_t>> groups;
  for (uint32_t i = 0; i < plan.ops.size(); ++i) {
    groups[{plan.ops[i].src, plan.ops[i].stage}].push_back(i);
  }
  std::vector<TransferOp> split_ops;
  split_ops.reserve(plan.ops.size());
  for (auto& [key, op_ids] : groups) {
    (void)key;
    std::unordered_map<VertexId, uint32_t> next_substage;
    for (uint32_t op_id : op_ids) {
      const TransferOp& op = plan.ops[op_id];
      std::map<uint32_t, std::vector<VertexId>> parts;
      for (VertexId v : op.vertices) {
        parts[next_substage[v]++].push_back(v);
      }
      for (auto& [substage, vertices] : parts) {
        TransferOp sub = op;
        sub.substage = substage;
        sub.vertices = std::move(vertices);
        split_ops.push_back(std::move(sub));
      }
    }
  }
  std::sort(split_ops.begin(), split_ops.end(),
            [](const TransferOp& a, const TransferOp& b) {
              return std::tie(a.stage, a.link, a.substage) <
                     std::tie(b.stage, b.link, b.substage);
            });
  plan.ops = std::move(split_ops);
  for (auto& ids : plan.ops_by_src) {
    ids.clear();
  }
  for (auto& ids : plan.ops_by_dst) {
    ids.clear();
  }
  for (uint32_t i = 0; i < plan.ops.size(); ++i) {
    plan.ops_by_src[plan.ops[i].src].push_back(i);
    plan.ops_by_dst[plan.ops[i].dst].push_back(i);
  }
}

Status ValidateCompiledPlan(const CompiledPlan& plan, const CommRelation& relation,
                            const Topology& topo,
                            std::vector<uint64_t>* forwarded_extras) {
  if (plan.num_devices != relation.num_devices) {
    return Status::InvalidArgument("device count mismatch");
  }
  // held[d] = set of vertices device d has after the stages executed so far.
  std::vector<std::unordered_set<VertexId>> held(plan.num_devices);
  for (uint32_t d = 0; d < plan.num_devices; ++d) {
    held[d].insert(relation.local_vertices[d].begin(), relation.local_vertices[d].end());
  }
  // Ops must be executed stage by stage.
  std::vector<std::vector<const TransferOp*>> by_stage(plan.num_stages);
  for (const TransferOp& op : plan.ops) {
    if (op.link >= topo.num_links() || topo.link(op.link).src != op.src ||
        topo.link(op.link).dst != op.dst) {
      return Status::InvalidArgument("op link/endpoint mismatch");
    }
    if (op.stage >= plan.num_stages) {
      return Status::OutOfRange("op stage out of range");
    }
    by_stage[op.stage].push_back(&op);
  }
  for (uint32_t k = 0; k < plan.num_stages; ++k) {
    // Sends of stage k see holdings from stages < k only.
    std::vector<std::pair<DeviceId, VertexId>> arrivals;
    for (const TransferOp* op : by_stage[k]) {
      for (VertexId v : op->vertices) {
        if (!held[op->src].contains(v)) {
          return Status::FailedPrecondition("device sends a vertex it does not hold");
        }
        arrivals.emplace_back(op->dst, v);
      }
    }
    // Each vertex enters a device at most once, and never its owner. A
    // device keeps one row per vertex, and in the backward pass every op
    // that delivered the vertex carries that row's gradient back, so a
    // second arrival would send the device's gradient home twice.
    for (const auto& [dst, v] : arrivals) {
      if (!held[dst].insert(v).second) {
        return Status::InvalidArgument("vertex delivered to a device that already holds it");
      }
    }
  }
  if (forwarded_extras != nullptr) {
    forwarded_extras->assign(plan.num_devices, 0);
  }
  for (uint32_t d = 0; d < plan.num_devices; ++d) {
    for (VertexId v : relation.remote_vertices[d]) {
      if (!held[d].contains(v)) {
        return Status::Internal("required remote vertex not delivered");
      }
    }
    if (forwarded_extras != nullptr) {
      const uint64_t required =
          relation.local_vertices[d].size() + relation.remote_vertices[d].size();
      (*forwarded_extras)[d] = held[d].size() - required;
    }
  }
  return Status::Ok();
}

}  // namespace dgcl
