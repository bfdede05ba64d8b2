// Per-device aggregation graph (the G_d(V_l ∪ V_r, E_d) of §4.1).
//
// After graph partitioning, each device sees a re-indexed graph over its
// *slots*: local vertices first, then its required remotes, matching the
// AllgatherEngine slot layout. Aggregation produces rows only for the local
// vertices, reading neighbor embeddings from any slot — which is exactly why
// the allgather must run before each layer's graph op.

#ifndef DGCL_GNN_LOCAL_GRAPH_H_
#define DGCL_GNN_LOCAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "comm/relation.h"
#include "graph/csr_graph.h"

namespace dgcl {

struct LocalGraph {
  uint32_t num_compute = 0;  // local vertices (rows produced by aggregation)
  uint32_t num_slots = 0;    // locals + remotes (rows readable)
  std::vector<uint64_t> offsets;     // num_compute + 1
  std::vector<uint32_t> nbr_slots;   // neighbor slot ids

  // The transpose of aggregation with self, for the backward scatter: slot s
  // is read by compute rows readers[reader_offsets[s], reader_offsets[s + 1])
  // in ascending order — row s itself when s is a compute row, a row as often
  // as it lists s. Empty until BuildReaders (BuildLocalGraph builds it).
  std::vector<uint64_t> reader_offsets;  // num_slots + 1
  std::vector<uint32_t> readers;

  std::span<const uint32_t> Neighbors(uint32_t local_row) const {
    return std::span<const uint32_t>(nbr_slots.data() + offsets[local_row],
                                     nbr_slots.data() + offsets[local_row + 1]);
  }
  std::span<const uint32_t> Readers(uint32_t slot) const {
    return std::span<const uint32_t>(readers.data() + reader_offsets[slot],
                                     readers.data() + reader_offsets[slot + 1]);
  }
  bool HasReaders() const { return !reader_offsets.empty(); }
};

// Builds graph's reader lists by a counting sort over the compute rows.
void BuildReaders(LocalGraph& graph);

// Device `d`'s re-indexed graph under `relation`, readers included. Every
// neighbor of a local vertex is either local or in the device's remote set,
// so this cannot fail once the relation is consistent with the graph it was
// built from.
LocalGraph BuildLocalGraph(const CsrGraph& graph, const CommRelation& relation, uint32_t device);

// Whole graph as a single device's local graph (single-device training), no
// readers: serving runs it forward only.
LocalGraph FullLocalGraph(const CsrGraph& graph);

}  // namespace dgcl

#endif  // DGCL_GNN_LOCAL_GRAPH_H_
