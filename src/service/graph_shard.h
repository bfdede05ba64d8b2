// Sharded graph store: the partitioner's output reinterpreted as a serving
// layout (the DistDGL architecture at this reproduction's scale).
//
// Training-side DGCL partitions the graph once and bakes the layout into a
// communication plan; the serving tier instead keeps the partitioning online
// as a *store*: each shard owns the vertices of one part, answers global→
// local resolution, and exposes its locals' adjacency. A sampler walking a
// neighborhood crosses shard boundaries through OwnerOf — the remote-
// neighbor indirection that the service prices via the engine's connection
// table (see service.h) and that a dead shard turns into kUnavailable.
//
// All shards share one in-memory CsrGraph (this is a single-process
// reproduction; the paper's NIC transport is already emulated elsewhere),
// and so do a shard's read replicas (replica_set.h): every replica reads the
// same adjacency and the service's one feature matrix, so replicas of a
// shard answer with the same bytes by construction. What is honest about
// the sharding is the *information boundary*: every lookup goes through
// shard-local indices and the ownership map, so the structure ports to a
// real RPC split without changing callers.

#ifndef DGCL_SERVICE_GRAPH_SHARD_H_
#define DGCL_SERVICE_GRAPH_SHARD_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "graph/csr_graph.h"
#include "partition/partitioner.h"

namespace dgcl {

// One shard: the local vertex set of a part plus its resolution index.
class GraphShard {
 public:
  GraphShard(uint32_t id, const CsrGraph* graph, std::vector<VertexId> locals);

  uint32_t id() const { return id_; }
  // Owned global ids, ascending.
  const std::vector<VertexId>& local_vertices() const { return locals_; }
  uint32_t num_local() const { return static_cast<uint32_t>(locals_.size()); }

  bool Owns(VertexId global) const { return LocalRank(global) != kInvalidId; }

  // Dense local id in [0, num_local()) for an owned global id; kInvalidId
  // otherwise. Binary search over the sorted locals — O(log n), no per-shard
  // hash of the global id space.
  uint32_t LocalRank(VertexId global) const;

  // Global id of a local rank. Precondition: rank < num_local().
  VertexId GlobalOf(uint32_t rank) const { return locals_[rank]; }

  // Neighbors (global ids, ascending) of an owned vertex.
  std::span<const VertexId> Neighbors(VertexId global) const { return graph_->Neighbors(global); }

 private:
  uint32_t id_ = 0;
  const CsrGraph* graph_ = nullptr;  // not owned; outlives the shard
  std::vector<VertexId> locals_;     // ascending
};

// The full store: every shard plus the global ownership map.
class ShardedGraphStore {
 public:
  // Empty store; only Build produces a usable one.
  ShardedGraphStore() = default;

  // Fails when the partitioning does not cover the graph. The graph must
  // outlive the store.
  static Result<ShardedGraphStore> Build(const CsrGraph& graph, const Partitioning& partitioning);

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  const GraphShard& shard(uint32_t id) const { return shards_[id]; }
  const CsrGraph& graph() const { return *graph_; }
  const Partitioning& partitioning() const { return partitioning_; }

  // Owning shard of a global vertex id. Precondition: v < num_vertices.
  uint32_t OwnerOf(VertexId v) const { return partitioning_.assignment[v]; }

  // (owner shard, local rank) resolution; kInvalidId pair when out of range.
  struct Resolved {
    uint32_t shard = kInvalidId;
    uint32_t local = kInvalidId;
  };
  Resolved Resolve(VertexId v) const;

 private:
  const CsrGraph* graph_ = nullptr;
  Partitioning partitioning_;
  std::vector<GraphShard> shards_;
};

}  // namespace dgcl

#endif  // DGCL_SERVICE_GRAPH_SHARD_H_
