#include "service/graph_shard.h"

#include <algorithm>

#include "common/logging.h"

namespace dgcl {

GraphShard::GraphShard(uint32_t id, const CsrGraph* graph, std::vector<VertexId> locals)
    : id_(id), graph_(graph), locals_(std::move(locals)) {
  DGCL_CHECK(std::is_sorted(locals_.begin(), locals_.end()));
}

uint32_t GraphShard::LocalRank(VertexId global) const {
  auto it = std::lower_bound(locals_.begin(), locals_.end(), global);
  if (it == locals_.end() || *it != global) {
    return kInvalidId;
  }
  return static_cast<uint32_t>(it - locals_.begin());
}

Result<ShardedGraphStore> ShardedGraphStore::Build(const CsrGraph& graph,
                                                   const Partitioning& partitioning) {
  DGCL_RETURN_IF_ERROR(ValidatePartitioning(graph, partitioning));
  ShardedGraphStore store;
  store.graph_ = &graph;
  store.partitioning_ = partitioning;
  std::vector<std::vector<VertexId>> members(partitioning.num_parts);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    members[partitioning.assignment[v]].push_back(v);  // ascending by construction
  }
  store.shards_.reserve(partitioning.num_parts);
  for (uint32_t p = 0; p < partitioning.num_parts; ++p) {
    store.shards_.emplace_back(p, &graph, std::move(members[p]));
  }
  return store;
}

ShardedGraphStore::Resolved ShardedGraphStore::Resolve(VertexId v) const {
  Resolved r;
  if (v >= graph_->num_vertices()) {
    return r;
  }
  r.shard = partitioning_.assignment[v];
  r.local = shards_[r.shard].LocalRank(v);
  return r;
}

}  // namespace dgcl
