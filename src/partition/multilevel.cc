#include "partition/multilevel.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <queue>
#include <utility>
#ifdef __GLIBC__
#include <malloc.h>  // malloc_trim
#endif

#include "common/ids.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

constexpr double kBalanceEpsilon = 0.05;  // max part weight <= (1 + eps) * ideal
// Coarsening stops once a level has at most max(kCoarsestVertices,
// 8 * num_parts) vertices (or when heavy-edge matching stalls).
constexpr uint32_t kCoarsestVertices = 256;
constexpr uint32_t kRefinementPasses = 6;  // boundary refinement sweeps per level
// Contraction sorts rows at least this long with a radix sort, shorter ones
// with std::sort.
constexpr uint64_t kRadixRowIds = 64;

// Internal weighted graph used across coarsening levels.
struct WGraph {
  uint32_t n = 0;
  std::vector<uint64_t> offsets;  // n + 1
  std::vector<uint32_t> adj;
  std::vector<uint32_t> wadj;   // edge weights (collapsed multiplicity)
  std::vector<uint32_t> vwgt;   // vertex weights (collapsed vertex count)

  uint64_t TotalVertexWeight() const {
    return std::accumulate(vwgt.begin(), vwgt.end(), uint64_t{0});
  }
};

WGraph FromCsr(const CsrGraph& graph, bool balance_by_degree) {
  WGraph g;
  g.n = graph.num_vertices();
  g.offsets = graph.offsets();
  g.adj = graph.targets();
  g.wadj.assign(g.adj.size(), 1);
  g.vwgt.assign(g.n, 1);
  if (balance_by_degree) {
    for (uint32_t v = 0; v < g.n; ++v) {
      g.vwgt[v] = 1 + graph.Degree(v);
    }
  }
  return g;
}

// True when every vertex's in-neighbours, taken in ascending source order, are
// exactly its row. Each source s consumes the next unmatched entry of every row
// it reaches; E matches consume all E entries, so no row is left with extra
// ids. Contraction keeps this property and sums weights symmetrically, so on
// such an input every level's rows double as its in-rows.
bool IsSymmetric(const CsrGraph& graph) {
  const std::vector<EdgeIndex>& offsets = graph.offsets();
  const std::vector<VertexId>& targets = graph.targets();
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId s = 0; s < graph.num_vertices(); ++s) {
    for (EdgeIndex e = offsets[s]; e < offsets[s + 1]; ++e) {
      const VertexId t = targets[e];
      if (cursor[t] == offsets[t + 1] || targets[cursor[t]] != s) {
        return false;
      }
      ++cursor[t];
    }
  }
  return true;
}

// The in-rows of g: row v lists every u whose row holds v, with that edge's
// weight (vertex weights are left empty).
WGraph Transpose(const WGraph& g) {
  WGraph t;
  t.n = g.n;
  t.offsets.assign(g.n + 1, 0);
  for (uint32_t v : g.adj) {
    ++t.offsets[v + 1];
  }
  std::partial_sum(t.offsets.begin(), t.offsets.end(), t.offsets.begin());
  t.adj.resize(g.adj.size());
  t.wadj.resize(g.adj.size());
  std::vector<uint64_t> cursor(t.offsets.begin(), t.offsets.end() - 1);
  for (uint32_t u = 0; u < g.n; ++u) {
    for (uint64_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      const uint64_t at = cursor[g.adj[e]]++;
      t.adj[at] = u;
      t.wadj[at] = g.wadj[e];
    }
  }
  return t;
}

// Heavy-edge matching; returns the fine->coarse map and the coarse size.
std::pair<std::vector<uint32_t>, uint32_t> HeavyEdgeMatch(const WGraph& g, Rng& rng) {
  std::vector<uint32_t> coarse_of(g.n, kInvalidId);
  std::vector<uint32_t> order = rng.Permutation(g.n);
  uint32_t next = 0;
  for (uint32_t v : order) {
    if (coarse_of[v] != kInvalidId) {
      continue;
    }
    uint32_t best = kInvalidId;
    uint32_t best_w = 0;
    for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      uint32_t u = g.adj[e];
      if (u != v && coarse_of[u] == kInvalidId && g.wadj[e] > best_w) {
        best_w = g.wadj[e];
        best = u;
      }
    }
    coarse_of[v] = next;
    if (best != kInvalidId) {
      coarse_of[best] = next;
    }
    ++next;
  }
  return {std::move(coarse_of), next};
}

// Sorts the distinct ids in ids[0, n) ascending with an LSD radix sort on
// 8-bit digits, `passes` of them (enough to cover every id), using tmp[0, n)
// as scratch. One scan counts every digit's histogram.
void RadixSortIds(uint32_t* ids, uint32_t* tmp, uint64_t n, uint32_t passes) {
  uint32_t count[4][256] = {};
  for (uint64_t i = 0; i < n; ++i) {
    for (uint32_t pass = 0; pass < passes; ++pass) {
      ++count[pass][(ids[i] >> (8 * pass)) & 0xFF];
    }
  }
  uint32_t* from = ids;
  uint32_t* to = tmp;
  for (uint32_t pass = 0; pass < passes; ++pass) {
    uint32_t next = 0;
    for (uint32_t& c : count[pass]) {
      next += std::exchange(c, next);
    }
    for (uint64_t i = 0; i < n; ++i) {
      to[count[pass][(from[i] >> (8 * pass)) & 0xFF]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != ids) {
    std::copy(from, from + n, ids);
  }
}

// Collapses g along coarse_of. Coarse row cu holds, in ascending id order,
// every coarse neighbour cv != cu of cu's fine members, weighted by the summed
// (then clamped) weights of the fine edges between them. Rows are built one
// at a time: a marker array sums weights per coarse neighbour and only the
// row's own ids are sorted, by a radix sort once the row has kRadixRowIds ids
// (the ids are distinct, so both sorts give the one ascending order).
// Contiguous blocks of rows, balanced by fine edge count, run on the shared
// pool; each block packs its rows into its own slice of a scratch buffer, and
// the slices are concatenated in row order, so the result does not depend on
// the block count or which thread ran a block.
WGraph Contract(const WGraph& g, const std::vector<uint32_t>& coarse_of, uint32_t coarse_n) {
  WGraph c;
  c.n = coarse_n;
  c.vwgt.assign(coarse_n, 0);
  // Bucket the fine vertices by coarse id (ascending fine id within a row).
  // Row cu's scratch starts at row_begin[cu] and is as long as its members'
  // summed fine degrees, an upper bound on the coarse row's length.
  std::vector<uint32_t> member_begin(coarse_n + 1, 0);
  std::vector<uint64_t> row_begin(coarse_n + 1, 0);
  for (uint32_t v = 0; v < g.n; ++v) {
    c.vwgt[coarse_of[v]] += g.vwgt[v];
    ++member_begin[coarse_of[v] + 1];
    row_begin[coarse_of[v] + 1] += g.offsets[v + 1] - g.offsets[v];
  }
  std::partial_sum(member_begin.begin(), member_begin.end(), member_begin.begin());
  std::partial_sum(row_begin.begin(), row_begin.end(), row_begin.begin());
  std::vector<uint32_t> members(g.n);
  {
    std::vector<uint32_t> cursor(member_begin.begin(), member_begin.end() - 1);
    for (uint32_t v = 0; v < g.n; ++v) {
      members[cursor[coarse_of[v]]++] = v;
    }
  }

  // Every buffer is allocated here, on the calling thread: allocations on
  // pool workers spread memory over per-thread malloc arenas. The radix sort
  // borrows a row's slice of scratch_w, which the row's weights fill only
  // after the sort.
  constexpr uint64_t kMinBlockEdges = uint64_t{1} << 15;
  const uint64_t fine_edges = row_begin[coarse_n];
  const uint64_t num_blocks = std::clamp<uint64_t>(
      fine_edges / kMinBlockEdges, 1, ThreadPool::Shared().num_threads() + 1);
  std::vector<uint32_t> block_row(num_blocks + 1, coarse_n);
  for (uint64_t b = 0; b < num_blocks; ++b) {
    block_row[b] = static_cast<uint32_t>(
        std::lower_bound(row_begin.begin(), row_begin.end() - 1,
                         fine_edges * b / num_blocks) -
        row_begin.begin());
  }
  std::vector<uint32_t> scratch_adj(fine_edges);
  std::vector<uint32_t> scratch_w(fine_edges);
  std::vector<uint64_t> block_end(num_blocks);
  // Summed weight per coarse neighbour of the current row; 0 marks "not in
  // the row yet" (edge weights are at least 1).
  std::vector<std::vector<uint64_t>> marker(num_blocks, std::vector<uint64_t>(coarse_n, 0));
  c.offsets.assign(coarse_n + 1, 0);
  const uint32_t radix_passes = (std::bit_width(coarse_n - 1) + 7) / 8;

  ThreadPool::Shared().ParallelFor(num_blocks, [&](uint64_t b) {
    std::vector<uint64_t>& weight = marker[b];
    uint64_t out = row_begin[block_row[b]];
    for (uint32_t cu = block_row[b]; cu < block_row[b + 1]; ++cu) {
      const uint64_t row = out;
      for (uint32_t i = member_begin[cu]; i < member_begin[cu + 1]; ++i) {
        const uint32_t v = members[i];
        for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
          const uint32_t cv = coarse_of[g.adj[e]];
          if (cv == cu) {
            continue;
          }
          if (weight[cv] == 0) {
            scratch_adj[out++] = cv;
          }
          weight[cv] += g.wadj[e];
        }
      }
      if (out - row >= kRadixRowIds) {
        RadixSortIds(scratch_adj.data() + row, scratch_w.data() + row, out - row, radix_passes);
      } else {
        std::sort(scratch_adj.begin() + row, scratch_adj.begin() + out);
      }
      for (uint64_t i = row; i < out; ++i) {
        uint64_t& w = weight[scratch_adj[i]];
        scratch_w[i] = static_cast<uint32_t>(std::min<uint64_t>(w, 0xFFFFFFFFu));
        w = 0;
      }
      c.offsets[cu + 1] = out - row;
    }
    block_end[b] = out;
  });

  std::partial_sum(c.offsets.begin(), c.offsets.end(), c.offsets.begin());
  c.adj.resize(c.offsets[coarse_n]);
  c.wadj.resize(c.offsets[coarse_n]);
  for (uint64_t b = 0; b < num_blocks; ++b) {
    const uint64_t from = row_begin[block_row[b]];
    const uint64_t to = c.offsets[block_row[b]];
    std::copy(scratch_adj.begin() + from, scratch_adj.begin() + block_end[b], c.adj.begin() + to);
    std::copy(scratch_w.begin() + from, scratch_w.begin() + block_end[b], c.wadj.begin() + to);
  }
  return c;
}

// Greedy BFS region growing on the coarsest graph.
std::vector<uint32_t> InitialPartition(const WGraph& g, uint32_t num_parts, Rng& rng) {
  std::vector<uint32_t> assignment(g.n, kInvalidId);
  const uint64_t total = g.TotalVertexWeight();
  const double target = static_cast<double>(total) / num_parts;
  std::vector<uint32_t> order = rng.Permutation(g.n);
  size_t cursor = 0;
  std::vector<uint64_t> part_weight(num_parts, 0);

  for (uint32_t p = 0; p + 1 < num_parts; ++p) {
    // Find an unassigned seed.
    while (cursor < order.size() && assignment[order[cursor]] != kInvalidId) {
      ++cursor;
    }
    if (cursor >= order.size()) {
      break;
    }
    std::queue<uint32_t> frontier;
    frontier.push(order[cursor]);
    while (!frontier.empty() && part_weight[p] < target) {
      uint32_t v = frontier.front();
      frontier.pop();
      if (assignment[v] != kInvalidId) {
        continue;
      }
      assignment[v] = p;
      part_weight[p] += g.vwgt[v];
      for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        if (assignment[g.adj[e]] == kInvalidId) {
          frontier.push(g.adj[e]);
        }
      }
      // When the BFS island is exhausted, jump to a fresh seed.
      if (frontier.empty() && part_weight[p] < target) {
        while (cursor < order.size() && assignment[order[cursor]] != kInvalidId) {
          ++cursor;
        }
        if (cursor < order.size()) {
          frontier.push(order[cursor]);
        }
      }
    }
  }
  // Everything left goes to the last part, then rebalance trivially by
  // spilling from overweight parts in refinement.
  for (uint32_t v = 0; v < g.n; ++v) {
    if (assignment[v] == kInvalidId) {
      assignment[v] = num_parts - 1;
    }
  }
  return assignment;
}

// Vertices Refine scanned and moved, summed over a Partition call.
struct RefineCounts {
  uint64_t evaluated = 0;
  uint64_t moves = 0;
};

// Boundary FM-style refinement: greedy single-vertex moves with positive cut
// gain under the balance constraint. `in` holds g's in-rows (g itself when g
// is symmetric). METIS's bookkeeping keeps, per vertex, its edge weight into
// its own part (id) and into the others (ed). A vertex with ed == 0 or
// ed < id cannot move: no other part's connection exceeds ed, which is below
// conn[from], and weights are at least 1. Such a vertex is skipped without a
// scan; every other vertex takes the full scan and decision, so the moves and
// their tie breaks are those of a sweep over every vertex.
void Refine(const WGraph& g, const WGraph& in, uint32_t num_parts, double max_part_weight,
            std::vector<uint32_t>& assignment, RefineCounts& counts) {
  std::vector<uint64_t> part_weight(num_parts, 0);
  std::vector<uint64_t> id(g.n, 0);
  std::vector<uint64_t> ed(g.n, 0);
  for (uint32_t v = 0; v < g.n; ++v) {
    const uint32_t own = assignment[v];
    part_weight[own] += g.vwgt[v];
    uint64_t internal = 0;
    uint64_t total = 0;
    for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      total += g.wadj[e];
      internal += assignment[g.adj[e]] == own ? g.wadj[e] : 0;
    }
    id[v] = internal;
    ed[v] = total - internal;
  }
  std::vector<uint64_t> conn(num_parts, 0);
  std::vector<uint32_t> touched;
  for (uint32_t pass = 0; pass < kRefinementPasses; ++pass) {
    uint64_t moves = 0;
    for (uint32_t v = 0; v < g.n; ++v) {
      if (ed[v] == 0 || ed[v] < id[v]) {
        continue;
      }
      ++counts.evaluated;
      const uint32_t from = assignment[v];
      touched.clear();
      for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        uint32_t p = assignment[g.adj[e]];
        if (conn[p] == 0) {
          touched.push_back(p);
        }
        conn[p] += g.wadj[e];
      }
      uint32_t best_part = from;
      uint64_t best_conn = conn[from];
      for (uint32_t p : touched) {
        if (p == from) {
          continue;
        }
        const bool fits = part_weight[p] + g.vwgt[v] <= max_part_weight;
        if (!fits) {
          continue;
        }
        // Prefer strictly better cut; break ties toward the lighter part to
        // improve balance.
        if (conn[p] > best_conn ||
            (conn[p] == best_conn && part_weight[p] + g.vwgt[v] < part_weight[best_part])) {
          best_conn = conn[p];
          best_part = p;
        }
      }
      if (best_part != from) {
        part_weight[from] -= g.vwgt[v];
        part_weight[best_part] += g.vwgt[v];
        assignment[v] = best_part;
        ++moves;
        // v's own split, then every u with v in its row: an edge into the
        // part v left turns external, one into the part it joined internal.
        const uint64_t total = id[v] + ed[v];
        id[v] = conn[best_part];
        ed[v] = total - conn[best_part];
        for (uint64_t e = in.offsets[v]; e < in.offsets[v + 1]; ++e) {
          const uint32_t u = in.adj[e];
          if (assignment[u] == from) {
            id[u] -= in.wadj[e];
            ed[u] += in.wadj[e];
          } else if (assignment[u] == best_part) {
            ed[u] -= in.wadj[e];
            id[u] += in.wadj[e];
          }
        }
      }
      for (uint32_t p : touched) {
        conn[p] = 0;
      }
    }
    counts.moves += moves;
    if (moves == 0) {
      break;
    }
  }
  // Balance repair: spill from overweight parts to the lightest parts, taking
  // p's vertices in id order; correctness over elegance here — this path only
  // triggers when greedy growth badly overfills a part. Nothing moves into p
  // while it drains, so the scan resumes after the last vertex it moved.
  for (uint32_t p = 0; p < num_parts; ++p) {
    uint32_t v = 0;
    while (part_weight[p] > max_part_weight) {
      uint32_t lightest =
          static_cast<uint32_t>(std::min_element(part_weight.begin(), part_weight.end()) -
                                part_weight.begin());
      if (lightest == p) {
        break;
      }
      while (v < g.n && assignment[v] != p) {
        ++v;
      }
      if (v == g.n) {
        break;
      }
      assignment[v] = lightest;
      part_weight[p] -= g.vwgt[v];
      part_weight[lightest] += g.vwgt[v];
      ++v;
    }
  }
}

}  // namespace

Result<Partitioning> MultilevelPartitioner::Partition(const CsrGraph& graph,
                                                      uint32_t num_parts) {
  if (num_parts == 0) {
    return Status::InvalidArgument("num_parts must be positive");
  }
  Partitioning out;
  out.num_parts = num_parts;
  if (num_parts == 1 || graph.num_vertices() == 0) {
    out.assignment.assign(graph.num_vertices(), 0);
    return out;
  }
  if (num_parts >= graph.num_vertices()) {
    out.assignment.resize(graph.num_vertices());
    std::iota(out.assignment.begin(), out.assignment.end(), 0u);
    return out;
  }

  Rng rng(options_.seed);
  const bool symmetric = IsSymmetric(graph);
  // Phase 1: coarsen.
  std::vector<WGraph> levels;
  std::vector<std::vector<uint32_t>> maps;  // fine vertex -> coarse vertex
  levels.push_back(FromCsr(graph, options_.balance_by_degree));
  const uint32_t stop_size = std::max(kCoarsestVertices, num_parts * 8);
  while (levels.back().n > stop_size) {
    auto [coarse_of, coarse_n] = HeavyEdgeMatch(levels.back(), rng);
    if (coarse_n > levels.back().n * 0.95) {
      break;  // matching stalled (e.g. star graphs); stop coarsening
    }
    WGraph coarse = Contract(levels.back(), coarse_of, coarse_n);
    maps.push_back(std::move(coarse_of));
    levels.push_back(std::move(coarse));
  }

  // Phase 2: initial partition at the coarsest level. The balance budget is
  // over total vertex weight (== vertex count unless balancing by degree).
  const double ideal =
      static_cast<double>(levels.front().TotalVertexWeight()) / num_parts;
  const double max_part_weight = (1.0 + kBalanceEpsilon) * ideal;
  RefineCounts counts;
  const auto refine = [&](const WGraph& g, std::vector<uint32_t>& assignment) {
    if (symmetric) {
      Refine(g, g, num_parts, max_part_weight, assignment, counts);
    } else {
      Refine(g, Transpose(g), num_parts, max_part_weight, assignment, counts);
    }
  };
  std::vector<uint32_t> assignment = InitialPartition(levels.back(), num_parts, rng);
  refine(levels.back(), assignment);

  // Phase 3: uncoarsen with refinement at each level.
  for (size_t level = maps.size(); level-- > 0;) {
    const std::vector<uint32_t>& map = maps[level];
    std::vector<uint32_t> finer(levels[level].n);
    for (uint32_t v = 0; v < levels[level].n; ++v) {
      finer[v] = assignment[map[v]];
    }
    assignment = std::move(finer);
    refine(levels[level], assignment);
  }
  DGCL_TCOUNT("partition", "multilevel.levels", levels.size());
  DGCL_TCOUNT("partition", "multilevel.refine_evaluated", counts.evaluated);
  DGCL_TCOUNT("partition", "multilevel.refine_moves", counts.moves);

  out.assignment = std::move(assignment);
  // The levels are transient, O(edges) each. glibc keeps freed heap memory
  // resident while the free top of the heap is under its trim threshold,
  // which adapts up to 64 MB, so without a trim a workload carries them in
  // its peak RSS for the rest of the process.
  levels.clear();
  maps.clear();
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  return out;
}

}  // namespace dgcl
