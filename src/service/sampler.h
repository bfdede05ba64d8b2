// Seeded, deterministic samplers over the partitioned graph.
//
// The sampler layer is a strategy family: every strategy derives from
// `Sampler`, and MakeSampler builds one by name. A GraphService builds
// exactly one, named by ServiceOptions::sampler at Create. The strategies,
// following the GraphMix/DistDGL split:
//  * SampleLocalNodes — uniform local vertices of one shard (mini-batch seed
//    selection; every training step starts here).
//  * "uniform" (NeighborSampler) — GraphSAGE-style fanout-capped k-hop
//    expansion from the seeds, uniform without replacement per frontier
//    vertex, walking shard boundaries through the communication relation's
//    owner map (CommRelation::source, comm/relation.h).
//  * "weighted" (WeightedNeighborSampler) — same frontier walk, but each
//    vertex keeps its fanout neighbors degree-biased (importance sampling
//    toward hubs; the graph carries no edge weights, so a neighbor's weight
//    is its degree).
//  * "random-walk" (RandomWalkSampler) — `fanout` independent uniform random
//    walks of `hops` steps from every seed; the sampled set is the union of
//    the visited vertices.
//
// The determinism contract (sampler_determinism_test + the per-strategy
// sampler_conformance_test, mirroring plan_determinism_test's): the sampled
// set is a pure function of (graph, seeds, options.seed) per strategy — NOT
// of the sampler-pool width, queue order, or which worker thread picks the
// request up. It holds because every random choice is drawn from an Rng
// keyed by the counter-hashed MixSeed (graph/khop.h) — (seed, hop, vertex)
// for the frontier strategies, (seed, start, walk) for walks — never from
// shared mutable RNG state. With every shard alive, NeighborSampler::Sample
// is byte-identical to the single-machine SampleKHop over the same graph.
//
// A frontier vertex owned by a dead shard cannot be expanded (its adjacency
// lives there); Sample fails with kUnavailable naming that shard as the
// suspect, which the service surfaces in the response. Random walks apply
// the same rule to every vertex they step through.

#ifndef DGCL_SERVICE_SAMPLER_H_
#define DGCL_SERVICE_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/relation.h"
#include "common/status.h"
#include "graph/csr_graph.h"
#include "graph/khop.h"

namespace dgcl {

// `count` distinct vertices of `locals` (shard `shard`'s owned vertices,
// ascending: CommRelation::local_vertices[shard]), ascending global ids,
// drawn uniformly without replacement from Rng(MixSeed(seed, shard, 0)).
// count >= locals.size() returns all locals.
std::vector<VertexId> SampleLocalNodes(std::span<const VertexId> locals, uint32_t shard,
                                       uint32_t count, uint64_t seed);

struct SampleResult {
  std::vector<VertexId> nodes;    // sampled set, ascending global ids
  uint64_t remote_expansions = 0; // frontier expansions owned by another shard
  DeviceMask shards_touched = 0;  // every shard that owned an expanded vertex
};

// Strategy interface. Implementations are stateless over a const graph and
// relation, so one instance is shared by every worker of a service (Sample
// is const and must be thread-safe).
class Sampler {
 public:
  virtual ~Sampler() = default;

  // Sample from `seeds`, as served by `home_shard`. `alive` is the
  // live-shard mask (bit s = shard s alive); expanding a vertex owned by a
  // dead shard returns kUnavailable with the shard named in the message
  // (and in `*dead_shard` when non-null).
  virtual Result<SampleResult> Sample(uint32_t home_shard, std::span<const VertexId> seeds,
                                      const SampleKHopOptions& options, DeviceMask alive,
                                      uint32_t* dead_shard = nullptr) const = 0;

  // The strategy name ("uniform", "weighted", "random-walk").
  virtual const char* name() const = 0;
  // Telemetry span of the serving sample phase, "serve.sample.<name>". A
  // literal: the trace ring stores the pointer.
  virtual const char* span_name() const = 0;

 protected:
  Sampler(const CsrGraph* graph, const CommRelation* relation)
      : graph_(graph), relation_(relation) {}

  // Not owned; both outlive the sampler. relation_->source[v] is v's shard.
  const CsrGraph* graph_;
  const CommRelation* relation_;
};

// "uniform": fanout-capped k-hop, uniform per frontier vertex. All-alive
// output equals SampleKHop(graph, seeds, opts) byte for byte.
class NeighborSampler : public Sampler {
 public:
  NeighborSampler(const CsrGraph* graph, const CommRelation* relation)
      : Sampler(graph, relation) {}

  Result<SampleResult> Sample(uint32_t home_shard, std::span<const VertexId> seeds,
                              const SampleKHopOptions& options, DeviceMask alive,
                              uint32_t* dead_shard = nullptr) const override;
  const char* name() const override { return "uniform"; }
  const char* span_name() const override { return "serve.sample.uniform"; }
};

// "weighted": fanout-capped k-hop with degree-biased neighbor choice
// (SampleNeighborsWeighted). Same frontier walk and failure semantics as
// "uniform"; only the per-vertex pick differs.
class WeightedNeighborSampler : public Sampler {
 public:
  WeightedNeighborSampler(const CsrGraph* graph, const CommRelation* relation)
      : Sampler(graph, relation) {}

  Result<SampleResult> Sample(uint32_t home_shard, std::span<const VertexId> seeds,
                              const SampleKHopOptions& options, DeviceMask alive,
                              uint32_t* dead_shard = nullptr) const override;
  const char* name() const override { return "weighted"; }
  const char* span_name() const override { return "serve.sample.weighted"; }
};

// "random-walk": options.fanout walks of options.hops steps from each seed;
// nodes = union of visited vertices, ascending. Every vertex a walk steps
// *from* needs its owner alive (its adjacency lives there), mirroring the
// frontier strategies' dead-shard rule.
class RandomWalkSampler : public Sampler {
 public:
  RandomWalkSampler(const CsrGraph* graph, const CommRelation* relation)
      : Sampler(graph, relation) {}

  Result<SampleResult> Sample(uint32_t home_shard, std::span<const VertexId> seeds,
                              const SampleKHopOptions& options, DeviceMask alive,
                              uint32_t* dead_shard = nullptr) const override;
  const char* name() const override { return "random-walk"; }
  const char* span_name() const override { return "serve.sample.random-walk"; }
};

// The strategy names MakeSampler accepts, ascending.
std::vector<std::string> SamplerNames();

// Builds the named strategy over `graph` and its partition's `relation`,
// which must outlive it. An unknown name fails with kInvalidArgument listing
// SamplerNames().
Result<std::unique_ptr<Sampler>> MakeSampler(const std::string& name, const CsrGraph* graph,
                                             const CommRelation* relation);

}  // namespace dgcl

#endif  // DGCL_SERVICE_SAMPLER_H_
