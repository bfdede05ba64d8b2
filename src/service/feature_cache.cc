#include "service/feature_cache.h"

#include <algorithm>

namespace dgcl {

FeatureCache::FeatureCache(size_t capacity_rows, uint32_t dim)
    : capacity_(capacity_rows == 0 ? 1 : capacity_rows), dim_(dim) {}

void FeatureCache::Unlink(uint32_t slot) {
  (prev_[slot] == kNone ? head_ : next_[prev_[slot]]) = next_[slot];
  (next_[slot] == kNone ? tail_ : prev_[next_[slot]]) = prev_[slot];
}

void FeatureCache::PushFront(uint32_t slot) {
  prev_[slot] = kNone;
  next_[slot] = head_;
  (head_ == kNone ? tail_ : prev_[head_]) = slot;
  head_ = slot;
}

bool FeatureCache::Lookup(VertexId v, float* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slot_of_.find(v);
  if (it == slot_of_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  const uint32_t slot = it->second;
  std::copy_n(RowOf(slot), dim_, out);
  if (slot != head_) {
    Unlink(slot);
    PushFront(slot);
  }
  return true;
}

bool FeatureCache::Insert(VertexId v, const float* row) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint32_t slot;
  bool evicted = false;
  if (const auto it = slot_of_.find(v); it != slot_of_.end()) {
    slot = it->second;
    Unlink(slot);
  } else if (vertex_.size() < capacity_) {
    // Grow toward capacity, doubling but never past it.
    if (vertex_.size() == vertex_.capacity()) {
      const size_t slots = std::min(capacity_, std::max<size_t>(16, 2 * vertex_.size()));
      vertex_.reserve(slots);
      prev_.reserve(slots);
      next_.reserve(slots);
      arena_.reserve(slots * dim_);
    }
    slot = static_cast<uint32_t>(vertex_.size());
    vertex_.push_back(v);
    prev_.push_back(kNone);
    next_.push_back(kNone);
    arena_.resize(arena_.size() + dim_);
    slot_of_.emplace(v, slot);
  } else {
    // Full: the least recent row gives up its slot and its map node.
    slot = tail_;
    Unlink(slot);
    auto node = slot_of_.extract(vertex_[slot]);
    node.key() = v;
    slot_of_.insert(std::move(node));
    vertex_[slot] = v;
    ++stats_.evictions;
    evicted = true;
  }
  std::copy_n(row, dim_, RowOf(slot));
  PushFront(slot);
  return evicted;
}

size_t FeatureCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return vertex_.size();
}

FeatureCache::Stats FeatureCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace dgcl
