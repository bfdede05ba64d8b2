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

Result<std::unique_ptr<ReplicaSet>> ReplicaSet::Build(const ShardedGraphStore& store,
                                                      uint32_t feature_dim,
                                                      const float* features,
                                                      ReplicationOptions options) {
  DGCL_RETURN_IF_ERROR(options.Validate());
  if (features == nullptr) {
    return Status::InvalidArgument("ReplicaSet::Build needs the feature matrix");
  }
  std::unique_ptr<ReplicaSet> set(new ReplicaSet());
  set->num_shards_ = store.num_shards();
  set->options_ = options;
  const uint32_t R = options.replicas;
  const size_t cells = static_cast<size_t>(set->num_shards_) * R;
  set->slices_.reserve(cells);
  for (uint32_t s = 0; s < set->num_shards_; ++s) {
    for (uint32_t r = 0; r < R; ++r) {
      set->slices_.push_back(MakeReplicaSlice(store.shard(s), r, feature_dim, features));
    }
  }
  set->membership_ = std::make_unique<ReplicaMembershipService>(set->num_shards_, R);
  set->alive_masks_ = std::vector<std::atomic<uint32_t>>(set->num_shards_);
  const uint32_t full = R >= 32 ? ~uint32_t{0} : (uint32_t{1} << R) - 1;
  for (auto& mask : set->alive_masks_) {
    mask.store(full, std::memory_order_release);
  }
  set->cursors_ = std::vector<std::atomic<uint64_t>>(set->num_shards_);
  set->routed_ = std::vector<std::atomic<uint64_t>>(cells);
  return set;
}

bool ReplicaSet::ReplicaAlive(uint32_t shard, uint32_t replica) const {
  if (shard >= num_shards_ || replica >= options_.replicas) {
    return false;
  }
  return (alive_masks_[shard].load(std::memory_order_acquire) >> replica) & 1;
}

uint32_t ReplicaSet::AliveReplicas(uint32_t shard) const {
  return static_cast<uint32_t>(std::popcount(AliveReplicaMask(shard)));
}

uint32_t ReplicaSet::AliveReplicaMask(uint32_t shard) const {
  return shard < num_shards_ ? alive_masks_[shard].load(std::memory_order_acquire) : 0;
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

Result<MembershipView> ReplicaSet::KillReplica(uint32_t shard, uint32_t replica) {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  DGCL_ASSIGN_OR_RETURN(MembershipView view, membership_->CommitReplicaFailure(shard, replica));
  alive_masks_[shard].store(membership_->AliveReplicaMask(shard), std::memory_order_release);
  replica_kills_.fetch_add(1, std::memory_order_relaxed);
  if (membership_->AliveReplicas(shard) == 0) {
    last_replica_deaths_.fetch_add(1, std::memory_order_relaxed);
  }
  return view;
}

MembershipView ReplicaSet::membership_view() const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  return membership_->view();
}

uint64_t ReplicaSet::replica_epoch() const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  return membership_->replica_epoch();
}

ReplicaSet::Stats ReplicaSet::stats() const {
  Stats s;
  s.replicas_per_shard = options_.replicas;
  s.routed.reserve(routed_.size());
  for (const auto& counter : routed_) {
    s.routed.push_back(counter.load(std::memory_order_relaxed));
  }
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.replica_kills = replica_kills_.load(std::memory_order_relaxed);
  s.last_replica_deaths = last_replica_deaths_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dgcl
