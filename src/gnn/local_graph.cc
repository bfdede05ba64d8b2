#include "gnn/local_graph.h"

#include <unordered_map>

#include "common/logging.h"

namespace dgcl {

LocalGraph BuildLocalGraph(const CsrGraph& graph, const CommRelation& relation,
                           uint32_t device) {
  DGCL_CHECK_LT(device, relation.num_devices);
  const auto& locals = relation.local_vertices[device];
  const auto& remotes = relation.remote_vertices[device];
  std::unordered_map<VertexId, uint32_t> slot;
  slot.reserve(locals.size() + remotes.size());
  uint32_t next = 0;
  for (VertexId v : locals) {
    slot.emplace(v, next++);
  }
  for (VertexId v : remotes) {
    slot.emplace(v, next++);
  }

  LocalGraph lg;
  lg.num_compute = static_cast<uint32_t>(locals.size());
  lg.num_slots = next;
  lg.offsets.assign(locals.size() + 1, 0);
  for (size_t i = 0; i < locals.size(); ++i) {
    auto nbrs = graph.Neighbors(locals[i]);
    lg.offsets[i + 1] = lg.offsets[i] + nbrs.size();
    for (VertexId nbr : nbrs) {
      auto it = slot.find(nbr);
      DGCL_CHECK(it != slot.end()) << "neighbor neither local nor remote";
      lg.nbr_slots.push_back(it->second);
    }
  }
  BuildReaders(lg);
  return lg;
}

void BuildReaders(LocalGraph& graph) {
  // Count each slot's reads, then place each row's reads in row order: the
  // row itself first, then its neighbor list.
  std::vector<uint64_t>& offsets = graph.reader_offsets;
  offsets.assign(static_cast<size_t>(graph.num_slots) + 1, 0);
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    ++offsets[i + 1];
    for (uint32_t slot : graph.Neighbors(i)) {
      ++offsets[slot + 1];
    }
  }
  for (uint32_t s = 0; s < graph.num_slots; ++s) {
    offsets[s + 1] += offsets[s];
  }
  graph.readers.resize(offsets.back());
  std::vector<uint64_t> next(offsets.begin(), offsets.end() - 1);
  for (uint32_t i = 0; i < graph.num_compute; ++i) {
    graph.readers[next[i]++] = i;
    for (uint32_t slot : graph.Neighbors(i)) {
      graph.readers[next[slot]++] = i;
    }
  }
}

LocalGraph FullLocalGraph(const CsrGraph& graph) {
  LocalGraph lg;
  lg.num_compute = graph.num_vertices();
  lg.num_slots = graph.num_vertices();
  lg.offsets = graph.offsets();
  lg.nbr_slots = graph.targets();
  return lg;
}

}  // namespace dgcl
