// Multilevel k-way partitioner — the METIS substitute.
//
// Classic three-phase scheme (Karypis & Kumar):
//   1. Coarsening: repeated heavy-edge matching collapses the graph until it
//      is small enough to partition directly. Each coarse graph is built the
//      METIS way, row by row: a marker array sums the weights of a coarse
//      vertex's edges per coarse neighbour, and only that row's neighbour ids
//      are sorted (a radix sort for rows of 64 ids or more; the ids are
//      distinct, so the order is the same). Contiguous blocks of rows run on
//      the shared ThreadPool and are concatenated in row order, so the coarse
//      graphs, and with them every assignment, do not depend on the pool
//      width. All state is local to the call, so Partition still honours
//      the Partitioner contract of concurrent calls: HierarchicalPartition
//      runs one call per machine group on the same pool, and the nested
//      fan-out cannot deadlock because the caller of ParallelFor claims work
//      items itself. Once the levels are freed, Partition hands free heap
//      pages back to the OS (malloc_trim on glibc), so the transient levels
//      do not stay in the process's RSS.
//   2. Initial partitioning: greedy region growing on the coarsest graph,
//      balanced by collapsed vertex weight.
//   3. Uncoarsening: project the assignment back level by level, running
//      boundary Fiduccia–Mattheyses-style refinement passes at each level.
//      Refinement keeps METIS's per-vertex internal/external edge weights
//      (id/ed) and scans only vertices with ed > 0 and ed >= id, the only
//      ones that can move; a move updates the weights of the moved vertex's
//      in-neighbours. On a symmetric input (checked once per call) each
//      level's rows are its in-rows; a directed input gets a transpose per
//      level. The moves and their tie breaks are those of a sweep over
//      every vertex. Each call emits three "partition" counters: levels,
//      vertices refinement scanned, and refinement moves.
//
// The objective matches the paper's use of METIS: minimize cross-partition
// edges subject to each part holding a near-equal number of vertices.

#ifndef DGCL_PARTITION_MULTILEVEL_H_
#define DGCL_PARTITION_MULTILEVEL_H_

#include "partition/partitioner.h"

namespace dgcl {

struct MultilevelOptions {
  uint64_t seed = 42;
  // Balance parts by vertex *work* (1 + degree) instead of vertex count.
  // On skewed graphs this equalizes per-device aggregation time (the
  // edge-proportional part of the compute model) at a small edge-cut cost —
  // the load-balancing concern ROC addresses with its learned cost model.
  bool balance_by_degree = false;
};

class MultilevelPartitioner final : public Partitioner {
 public:
  explicit MultilevelPartitioner(MultilevelOptions options = {}) : options_(options) {}

  Result<Partitioning> Partition(const CsrGraph& graph, uint32_t num_parts) override;
  std::string name() const override { return "multilevel"; }

 private:
  MultilevelOptions options_;
};

}  // namespace dgcl

#endif  // DGCL_PARTITION_MULTILEVEL_H_
