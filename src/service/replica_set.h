// Shard replicas for read scaling, with round-robin routing and failover.
//
// The serving tier (service.h) shards the graph once. With one home per
// shard, one KillShard turns it kUnavailable and read throughput is capped
// by one sampler pool per shard. Following DistDGL's
// read-replication, a ReplicaSet gives every shard R routable read replicas:
// each runs its own request queue and sampler pool and is a first-class
// liveness unit — KillReplica folds one replica away, and the shard stays
// serving until its *last* replica dies.
//
// The per-shard replica masks are the serving tier's only liveness record.
// Everything else is derived from them on read: the shard-alive mask the
// samplers and feature assembly check (AliveShards), the device-level
// membership view (epoch = dead shards; replicas never rejoin, so that count
// only grows), and the replica-kill count (dead replica bits).
//
// Routing is round-robin: a per-shard atomic cursor walks the alive
// replicas, spreading reads evenly.
//
// Why routing cannot change payloads: every response is a pure function of
// (request, graph) — the samplers draw from counter-hashed seeds and every
// replica reads the same feature matrix and adjacency — so the byte-identity
// contract the conformance tests pin (replica_conformance_test) holds for
// every kill schedule that leaves a survivor. Routing decides latency and
// liveness, never bytes.
//
// Concurrency: Route and every liveness read are lock-free (atomics).
// KillReplica is a read-check-store on the masks and is not thread-safe:
// callers serialize commits (GraphService holds its kill mutex across a
// commit and the queue handoff that follows it).

#ifndef DGCL_SERVICE_REPLICA_SET_H_
#define DGCL_SERVICE_REPLICA_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "runtime/recovery.h"

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
    std::vector<uint64_t> routed;  // [shard * R + r] requests routed there
    uint64_t failovers = 0;        // requests rerouted off a dying replica
    uint64_t replica_kills = 0;    // committed replica deaths
  };

  // Arms R live replicas for each of `num_shards` shards.
  static Result<std::unique_ptr<ReplicaSet>> Build(uint32_t num_shards,
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
  // Bit s = shard s has a live replica.
  DeviceMask AliveShards() const;

  // Commits replica (shard, replica) dead. OutOfRange for a bad id,
  // InvalidArgument when the replica is already dead, FailedPrecondition
  // when it is the last replica of the last alive shard; a refused kill
  // changes nothing. Killing a shard's last replica kills the shard.
  Status KillReplica(uint32_t shard, uint32_t replica);

  // Device-level membership derived from the masks: alive = AliveShards(),
  // epoch = shards with no live replica.
  MembershipView membership_view() const;

  // Counts a rerouted request (a failover) — the service calls this when a
  // dead replica's queue is drained onto survivors or a Submit loses the
  // race with a kill and re-routes.
  void CountFailover(uint64_t n = 1) { failovers_.fetch_add(n, std::memory_order_relaxed); }

  Stats stats() const;

 private:
  ReplicaSet() = default;

  size_t Index(uint32_t shard, uint32_t replica) const {
    return static_cast<size_t>(shard) * options_.replicas + replica;
  }

  uint32_t num_shards_ = 0;
  ReplicationOptions options_;
  std::vector<std::atomic<uint32_t>> alive_masks_;  // per shard; bit r = replica r alive
  std::vector<std::atomic<uint64_t>> cursors_;      // per shard, round-robin
  std::vector<std::atomic<uint64_t>> routed_;       // per (shard, replica)
  std::atomic<uint64_t> failovers_{0};
};

}  // namespace dgcl

#endif  // DGCL_SERVICE_REPLICA_SET_H_
