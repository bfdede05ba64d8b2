#include "service/sampler.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"

namespace dgcl {

namespace {

// The per-vertex neighbor pick is the only difference between the frontier
// strategies; SampleNeighbors / SampleNeighborsWeighted share this signature.
using NeighborPick = std::vector<VertexId> (*)(const CsrGraph&, VertexId, uint32_t, uint64_t,
                                               uint32_t);

// Mirrors SampleKHop (graph/khop.cc) exactly, with ownership resolution on
// every expansion — keep the hop numbering and visit order in lockstep or
// the all-alive byte-identity contract (uniform vs SampleKHop) breaks.
Result<SampleResult> FrontierSample(const CsrGraph& graph, const CommRelation& relation,
                                    uint32_t home_shard, std::span<const VertexId> seeds,
                                    const SampleKHopOptions& options, DeviceMask alive,
                                    uint32_t* dead_shard, NeighborPick pick) {
  SampleResult result;
  std::vector<uint8_t> visited(graph.num_vertices(), 0);
  std::vector<VertexId> frontier;
  for (VertexId s : seeds) {
    if (s >= graph.num_vertices()) {
      return Status::OutOfRange("sample seed " + std::to_string(s) + " >= num_vertices");
    }
    if (!visited[s]) {
      visited[s] = 1;
      frontier.push_back(s);
      result.nodes.push_back(s);
    }
  }
  std::sort(frontier.begin(), frontier.end());
  std::vector<VertexId> next;
  for (uint32_t hop = 0; hop < options.hops && !frontier.empty(); ++hop) {
    next.clear();
    for (VertexId v : frontier) {
      const uint32_t owner = relation.source[v];
      if (((alive >> owner) & 1) == 0) {
        if (dead_shard != nullptr) {
          *dead_shard = owner;
        }
        return Status::Unavailable("shard " + std::to_string(owner) +
                                   " is dead; cannot expand vertex " + std::to_string(v));
      }
      result.shards_touched |= DeviceMask{1} << owner;
      if (owner != home_shard) {
        ++result.remote_expansions;
      }
      for (VertexId nbr : pick(graph, v, options.fanout, options.seed, hop)) {
        if (!visited[nbr]) {
          visited[nbr] = 1;
          next.push_back(nbr);
          result.nodes.push_back(nbr);
        }
      }
    }
    std::sort(next.begin(), next.end());
    std::swap(frontier, next);
  }
  std::sort(result.nodes.begin(), result.nodes.end());
  return result;
}

}  // namespace

std::vector<VertexId> SampleLocalNodes(std::span<const VertexId> locals, uint32_t shard,
                                       uint32_t count, uint64_t seed) {
  const uint64_t n = locals.size();
  if (count >= n) {
    return {locals.begin(), locals.end()};
  }
  Rng rng(MixSeed(seed, shard, 0));
  std::unordered_map<uint64_t, uint64_t> swapped;
  std::vector<VertexId> chosen;
  chosen.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t j = i + rng.UniformInt(n - i);
    auto at = [&](uint64_t k) {
      auto it = swapped.find(k);
      return it == swapped.end() ? k : it->second;
    };
    const uint64_t pick = at(j);
    swapped[j] = at(i);
    chosen.push_back(locals[pick]);
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

Result<SampleResult> NeighborSampler::Sample(uint32_t home_shard, std::span<const VertexId> seeds,
                                             const SampleKHopOptions& options, DeviceMask alive,
                                             uint32_t* dead_shard) const {
  return FrontierSample(*graph_, *relation_, home_shard, seeds, options, alive, dead_shard,
                        &SampleNeighbors);
}

Result<SampleResult> WeightedNeighborSampler::Sample(uint32_t home_shard,
                                                     std::span<const VertexId> seeds,
                                                     const SampleKHopOptions& options,
                                                     DeviceMask alive,
                                                     uint32_t* dead_shard) const {
  return FrontierSample(*graph_, *relation_, home_shard, seeds, options, alive, dead_shard,
                        &SampleNeighborsWeighted);
}

Result<SampleResult> RandomWalkSampler::Sample(uint32_t home_shard,
                                               std::span<const VertexId> seeds,
                                               const SampleKHopOptions& options, DeviceMask alive,
                                               uint32_t* dead_shard) const {
  const CsrGraph& graph = *graph_;
  SampleResult result;
  std::vector<uint8_t> visited(graph.num_vertices(), 0);
  std::vector<VertexId> starts;
  for (VertexId s : seeds) {
    if (s >= graph.num_vertices()) {
      return Status::OutOfRange("sample seed " + std::to_string(s) + " >= num_vertices");
    }
    if (!visited[s]) {
      visited[s] = 1;
      starts.push_back(s);
      result.nodes.push_back(s);
    }
  }
  // Walks are keyed by (seed, start, walk index), so they are independent of
  // each other and of visit order; iterating starts ascending only pins which
  // dead shard is reported first.
  std::sort(starts.begin(), starts.end());
  for (VertexId start : starts) {
    for (uint32_t walk = 0; walk < options.fanout; ++walk) {
      const std::vector<VertexId> path =
          SampleRandomWalk(graph, start, options.hops, options.seed, walk);
      // Every vertex the walk read adjacency for needs its owner alive: each
      // step position, plus the dead end itself when the walk stopped early.
      const bool completed = path.size() == static_cast<size_t>(options.hops) + 1;
      const size_t expanded = completed ? path.size() - 1 : path.size();
      for (size_t i = 0; i < expanded; ++i) {
        const uint32_t owner = relation_->source[path[i]];
        if (((alive >> owner) & 1) == 0) {
          if (dead_shard != nullptr) {
            *dead_shard = owner;
          }
          return Status::Unavailable("shard " + std::to_string(owner) +
                                     " is dead; cannot expand vertex " + std::to_string(path[i]));
        }
        result.shards_touched |= DeviceMask{1} << owner;
        if (owner != home_shard) {
          ++result.remote_expansions;
        }
      }
      for (VertexId v : path) {
        if (!visited[v]) {
          visited[v] = 1;
          result.nodes.push_back(v);
        }
      }
    }
  }
  std::sort(result.nodes.begin(), result.nodes.end());
  return result;
}

std::vector<std::string> SamplerNames() { return {"random-walk", "uniform", "weighted"}; }

Result<std::unique_ptr<Sampler>> MakeSampler(const std::string& name, const CsrGraph* graph,
                                             const CommRelation* relation) {
  if (name == "uniform") {
    return std::unique_ptr<Sampler>(new NeighborSampler(graph, relation));
  }
  if (name == "weighted") {
    return std::unique_ptr<Sampler>(new WeightedNeighborSampler(graph, relation));
  }
  if (name == "random-walk") {
    return std::unique_ptr<Sampler>(new RandomWalkSampler(graph, relation));
  }
  std::string names;
  for (const std::string& n : SamplerNames()) {
    names += names.empty() ? n : ", " + n;
  }
  return Status::InvalidArgument("unknown sampler \"" + name + "\"; samplers: " + names);
}

}  // namespace dgcl
