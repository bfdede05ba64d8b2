#include "service/replica_set.h"

#include <bit>

namespace dgcl {

Status ReplicationOptions::Validate() const {
  if (replicas < 1 || replicas > 8) {
    return Status::InvalidArgument("replication.replicas must be in [1, 8], got " +
                                   std::to_string(replicas));
  }
  return Status::Ok();
}

Result<std::unique_ptr<ReplicaSet>> ReplicaSet::Build(uint32_t num_shards,
                                                      ReplicationOptions options) {
  DGCL_RETURN_IF_ERROR(options.Validate());
  if (num_shards < 1 || num_shards > kMaxDevices) {
    return Status::InvalidArgument("ReplicaSet needs 1.." + std::to_string(kMaxDevices) +
                                   " shards, got " + std::to_string(num_shards));
  }
  std::unique_ptr<ReplicaSet> set(new ReplicaSet());
  set->num_shards_ = num_shards;
  set->options_ = options;
  set->alive_masks_ = std::vector<std::atomic<uint32_t>>(num_shards);
  for (auto& mask : set->alive_masks_) {
    mask.store((uint32_t{1} << options.replicas) - 1, std::memory_order_release);
  }
  set->cursors_ = std::vector<std::atomic<uint64_t>>(num_shards);
  set->routed_ = std::vector<std::atomic<uint64_t>>(static_cast<size_t>(num_shards) *
                                                    options.replicas);
  return set;
}

bool ReplicaSet::ReplicaAlive(uint32_t shard, uint32_t replica) const {
  return replica < options_.replicas && ((AliveReplicaMask(shard) >> replica) & 1);
}

uint32_t ReplicaSet::AliveReplicas(uint32_t shard) const {
  return static_cast<uint32_t>(std::popcount(AliveReplicaMask(shard)));
}

uint32_t ReplicaSet::AliveReplicaMask(uint32_t shard) const {
  return shard < num_shards_ ? alive_masks_[shard].load(std::memory_order_acquire) : 0;
}

DeviceMask ReplicaSet::AliveShards() const {
  DeviceMask alive = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (alive_masks_[s].load(std::memory_order_acquire) != 0) {
      alive |= DeviceMask{1} << s;
    }
  }
  return alive;
}

Result<uint32_t> ReplicaSet::Route(uint32_t shard) {
  if (shard >= num_shards_) {
    return Status::OutOfRange("shard " + std::to_string(shard) + " >= num_shards " +
                              std::to_string(num_shards_));
  }
  uint32_t alive = alive_masks_[shard].load(std::memory_order_acquire);
  if (alive == 0) {
    return Status::Unavailable("shard " + std::to_string(shard) + " has no live replicas");
  }
  // The pick-th alive replica, counting up from the lowest index.
  const uint64_t cursor = cursors_[shard].fetch_add(1, std::memory_order_relaxed);
  for (uint64_t pick = cursor % static_cast<uint64_t>(std::popcount(alive)); pick > 0; --pick) {
    alive &= alive - 1;  // drop the lowest alive replica
  }
  const uint32_t chosen = static_cast<uint32_t>(std::countr_zero(alive));
  routed_[Index(shard, chosen)].fetch_add(1, std::memory_order_relaxed);
  return chosen;
}

Status ReplicaSet::KillReplica(uint32_t shard, uint32_t replica) {
  const std::string name =
      "replica (" + std::to_string(shard) + ", " + std::to_string(replica) + ")";
  if (shard >= num_shards_ || replica >= options_.replicas) {
    return Status::OutOfRange("KillReplica: " + name + " out of range");
  }
  const uint32_t mask = alive_masks_[shard].load(std::memory_order_acquire);
  const uint32_t bit = uint32_t{1} << replica;
  if ((mask & bit) == 0) {
    return Status::InvalidArgument("KillReplica: " + name + " is already dead");
  }
  if (mask == bit && AliveShards() == (DeviceMask{1} << shard)) {
    return Status::FailedPrecondition("KillReplica: " + name +
                                      " is the last replica of the last alive shard");
  }
  alive_masks_[shard].store(mask & ~bit, std::memory_order_release);
  return Status::Ok();
}

MembershipView ReplicaSet::membership_view() const {
  MembershipView view;
  view.alive = AliveShards();
  view.epoch = num_shards_ - view.NumAlive();
  return view;
}

ReplicaSet::Stats ReplicaSet::stats() const {
  Stats s;
  s.routed.reserve(routed_.size());
  for (const auto& counter : routed_) {
    s.routed.push_back(counter.load(std::memory_order_relaxed));
  }
  s.failovers = failovers_.load(std::memory_order_relaxed);
  for (uint32_t shard = 0; shard < num_shards_; ++shard) {
    s.replica_kills += options_.replicas - AliveReplicas(shard);
  }
  return s;
}

}  // namespace dgcl
