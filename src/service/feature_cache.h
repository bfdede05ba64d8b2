// Feature/embedding cache fronting remote-feature fetches (§3 option (1),
// made real).
//
// The epoch simulator's Method::kDgclCache prices the idealized version of
// this cache — every remote layer-0 feature pinned locally. The serving tier
// needs the real thing: a bounded row cache in front of the remote-fetch
// path, whose hit rate bench_serving measures.
//
// One LRU over one row arena: rows sit in `dim`-wide slots of a single float
// array that grows as rows arrive (never past capacity, never allocated up
// front), one hash map takes a vertex to its slot, and recency is a doubly
// linked list of slot ids whose tail is the victim. A lookup is one hash find
// and a row copy; once the arena is full an insert reuses the victim's slot
// and its map node, so neither allocates.
//
// Thread model: the cache is shared by every sampler worker; one mutex
// guards map, list and arena (row copies happen under the lock — rows are
// small, feature_dim floats). The cache records no trace events; the
// service counts hits, misses and evictions per request.

#ifndef DGCL_SERVICE_FEATURE_CACHE_H_
#define DGCL_SERVICE_FEATURE_CACHE_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/csr_graph.h"

namespace dgcl {

// Bounded LRU cache of feature rows keyed by global vertex id.
class FeatureCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    double HitRate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  // Holds at most `capacity_rows` rows (0 counts as 1) of `dim` floats each.
  FeatureCache(size_t capacity_rows, uint32_t dim);

  // Copies v's row into out[0, dim) and returns true on a hit, making v the
  // most recent; false (out untouched) on a miss. Both outcomes are counted.
  bool Lookup(VertexId v, float* out);

  // Stores row[0, dim) as v's row and makes v the most recent: refreshes a
  // resident row, or takes a free slot, or evicts the least recent row.
  // Returns true when it evicted.
  bool Insert(VertexId v, const float* row);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  Stats stats() const;

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  void Unlink(uint32_t slot);
  void PushFront(uint32_t slot);
  float* RowOf(uint32_t slot) { return arena_.data() + static_cast<size_t>(slot) * dim_; }

  const size_t capacity_;
  const uint32_t dim_;
  mutable std::mutex mutex_;
  std::unordered_map<VertexId, uint32_t> slot_of_;
  std::vector<VertexId> vertex_;  // slot -> resident vertex
  std::vector<uint32_t> prev_;    // toward the head (more recent)
  std::vector<uint32_t> next_;    // toward the tail (less recent)
  std::vector<float> arena_;      // slot s at [s * dim, (s + 1) * dim)
  uint32_t head_ = kNone;         // most recent
  uint32_t tail_ = kNone;         // least recent: the victim
  Stats stats_;
};

}  // namespace dgcl

#endif  // DGCL_SERVICE_FEATURE_CACHE_H_
