// Shard replicas for read scaling, with round-robin routing and failover.
//
// The serving tier (service.h) shards the graph once; before this layer each
// shard was a single home — one KillShard turned it kUnavailable and read
// throughput was capped by one sampler pool per shard. Following DistDGL's
// read-replication, a ReplicaSet gives every shard R routable read replicas:
// each holds its own copy of the shard's CSR slice index and feature rows
// (ReplicaSlice, graph_shard.h), runs its own sampler pool, and is a
// first-class liveness unit — KillReplica folds one replica away, and the
// shard stays serving until its *last* replica dies (at which point the
// device-level membership epoch commits, exactly like a whole-shard kill).
//
// Routing is round-robin: a per-shard atomic cursor walks the alive
// replicas, spreading reads evenly.
//
// Why routing cannot change payloads: every response is a pure function of
// (request, graph) — the samplers draw from counter-hashed seeds and every
// replica's slice is a byte-identical copy — so the byte-identity contract
// the conformance tests pin (replica_conformance_test) holds for every
// kill schedule that leaves a survivor. Routing decides latency and
// liveness, never bytes.
//
// Concurrency: Route and the alive checks are lock-free (atomics); kill
// commits take the internal mutex and go through the PR-5 epoch machinery
// (ReplicaMembershipService, runtime/recovery.h). The service serializes
// kill + queue-handoff sequences with its own kill mutex on top.

#ifndef DGCL_SERVICE_REPLICA_SET_H_
#define DGCL_SERVICE_REPLICA_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "runtime/recovery.h"
#include "service/graph_shard.h"

namespace dgcl {

struct ReplicationOptions {
  // Read replicas per shard (R). 1 = the pre-replica behavior: one home per
  // shard, KillShard is the only failure unit.
  uint32_t replicas = 1;

  Status Validate() const;
};

class ReplicaSet {
 public:
  struct Stats {
    uint32_t replicas_per_shard = 1;
    std::vector<uint64_t> routed;      // [shard * R + r] requests routed there
    uint64_t failovers = 0;            // requests rerouted off a dying replica
    uint64_t replica_kills = 0;        // committed replica deaths
    uint64_t last_replica_deaths = 0;  // kills that exhausted a shard
  };

  // Materializes R replica slices per shard from the global feature matrix
  // (`features` = num_vertices rows of `feature_dim` floats) and arms the
  // replica membership. The store must outlive the set.
  static Result<std::unique_ptr<ReplicaSet>> Build(const ShardedGraphStore& store,
                                                   uint32_t feature_dim, const float* features,
                                                   ReplicationOptions options);

  uint32_t num_shards() const { return num_shards_; }
  uint32_t replicas_per_shard() const { return options_.replicas; }
  const ReplicationOptions& options() const { return options_; }

  // Picks the next alive replica of `shard` in round-robin order and counts
  // it as routed. kUnavailable naming the shard when its last replica is
  // gone. Thread-safe, lock-free.
  Result<uint32_t> Route(uint32_t shard);

  bool ShardAlive(uint32_t shard) const { return AliveReplicaMask(shard) != 0; }
  bool ReplicaAlive(uint32_t shard, uint32_t replica) const;
  uint32_t AliveReplicas(uint32_t shard) const;
  uint32_t AliveReplicaMask(uint32_t shard) const;

  // Commits replica (shard, replica) dead through the membership epochs and
  // returns the device-level view after the commit (the caller refreshes its
  // alive mask from it). Killing a shard's last replica commits the shard
  // dead; the last replica of the last alive shard cannot be killed.
  Result<MembershipView> KillReplica(uint32_t shard, uint32_t replica);

  // Device-level membership (epoch + shard alive mask).
  MembershipView membership_view() const;
  uint64_t replica_epoch() const;

  // Counts a rerouted request (a failover) — the service calls this when a
  // dead replica's queue is drained onto survivors or a Submit loses the
  // race with a kill and re-routes.
  void CountFailover(uint64_t n = 1) { failovers_.fetch_add(n, std::memory_order_relaxed); }

  const ReplicaSlice& slice(uint32_t shard, uint32_t replica) const {
    return slices_[Index(shard, replica)];
  }

  Stats stats() const;

 private:
  ReplicaSet() = default;

  size_t Index(uint32_t shard, uint32_t replica) const {
    return static_cast<size_t>(shard) * options_.replicas + replica;
  }

  uint32_t num_shards_ = 0;
  ReplicationOptions options_;
  std::vector<ReplicaSlice> slices_;  // [shard * R + r]

  // Commit path: membership under the mutex, mask mirrored into atomics for
  // the lock-free route path.
  mutable std::mutex membership_mutex_;
  std::unique_ptr<ReplicaMembershipService> membership_;
  std::vector<std::atomic<uint32_t>> alive_masks_;  // per shard

  std::vector<std::atomic<uint64_t>> cursors_;  // per shard, round-robin
  std::vector<std::atomic<uint64_t>> routed_;   // per (shard, replica)
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> replica_kills_{0};
  std::atomic<uint64_t> last_replica_deaths_{0};
};

}  // namespace dgcl

#endif  // DGCL_SERVICE_REPLICA_SET_H_
