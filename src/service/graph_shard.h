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
// reproduction; the paper's NIC transport is already emulated elsewhere).
// What is honest about the sharding is the *information boundary*: every
// lookup goes through shard-local indices and the ownership map, so the
// structure ports to a real RPC split without changing callers.

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

  // Directed edges from this shard's locals whose target is owned elsewhere
  // (the shard's remote frontier size; sizing signal for the feature cache).
  uint64_t CountRemoteEdges(const Partitioning& partitioning) const;

 private:
  uint32_t id_ = 0;
  const CsrGraph* graph_ = nullptr;  // not owned; outlives the shard
  std::vector<VertexId> locals_;     // ascending
};

// One read replica's copy of a shard's serving data: the shard's local
// vertex ids (its CSR slice index) and their feature rows, materialized per
// replica so every replica answers local reads from its own storage — the
// information boundary a real multi-server deployment would have. Replicas
// of a shard are byte-identical copies by construction, which is what lets
// the router pick any of them without perturbing response payloads.
struct ReplicaSlice {
  uint32_t shard = 0;
  uint32_t replica = 0;
  uint32_t dim = 0;
  std::vector<VertexId> locals;  // == the shard's locals, ascending
  std::vector<float> rows;       // locals.size() * dim; row i = features of locals[i]

  // Feature row of an owned global id; nullptr when this shard does not own
  // it. Binary search over the sorted locals, like GraphShard::LocalRank.
  const float* RowOf(VertexId global) const;
};

// Materializes replica `replica` of `shard` by copying its locals' rows out
// of the global feature matrix (`features` has one dim-wide row per global
// vertex id, densely packed).
ReplicaSlice MakeReplicaSlice(const GraphShard& shard, uint32_t replica, uint32_t dim,
                              const float* features);

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
