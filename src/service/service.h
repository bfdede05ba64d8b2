// GraphService: the request-driven serving tier over the DGCL stack.
//
// Turns the batch-training machinery into a traffic-serving system (the
// DistDGL architecture, scaled to this reproduction): a request names a home
// shard and seed vertices; a sampler worker of that shard's pool pops it
// from a bounded queue, draws a deterministic sample over the partitioned
// graph with the service's one strategy (ServiceOptions::sampler, sampler.h),
// assembles the sampled nodes' feature rows — local rows read directly,
// remote rows through the feature cache, cache misses priced on the engine's
// per-pair Connection objects (the same transport decision table and fault
// injection the trainer uses) — and optionally runs a mini-batch GNN forward
// over the induced subgraph (gnn/layers.h InferenceForward). Responses flow
// back through one bounded MPMC response queue.
//
// Request lifecycle (every phase a "service" telemetry span, so
// `dgcl_trace summarize --serving` reports serving percentiles the way
// `--waits` reports coordination waits):
//
//   Submit --> [shard request queue] --> worker pop      (serve.queue)
//          --> sample over the graph                     (serve.sample.<sampler>)
//          --> feature assembly via cache + connections  (serve.features)
//          --> optional mini-batch forward               (serve.infer)
//          --> [response queue] --> PopResponse          (serve.request = total)
//
// Read scaling (replica_set.h): every shard runs R read replicas, each with
// its own request queue and sampler pool over the shared graph and feature
// matrix. Submit routes a request round-robin over the shard's alive
// replicas; a response carries the serving replica. KillReplica folds one
// replica away — its queued requests are rerouted to survivors (counted as
// failovers), never failed — and the shard keeps serving until its LAST
// replica dies, which kills the shard exactly like KillShard (which itself
// kills all R replicas).
//
// Liveness lives in one place: the ReplicaSet's per-shard replica masks.
// The shard-alive mask every request checks and membership() are derived
// from them on read. Exhausting a shard's replicas bumps the membership
// epoch, closes and drains the dead shard's queues, and every request that
// touches the dead shard — queued on it, routed to it later, or
// sampling/fetching across it — completes with kUnavailable naming the shard as suspect,
// within one request deadline, never a hang. Backpressure is explicit:
// Submit returns kResourceExhausted when the routed replica's queue is full
// (the open-loop generator counts these as shed).
//
// Determinism: the sampled node set and inference output for a request are
// pure functions of the request (see sampler.h); pool width, queue order,
// replica count, and which replica serves affect only latency and cache hit
// patterns, not payloads — responses are byte-identical to the R=1 run under
// any kill schedule that leaves a survivor (replica_conformance_test pins
// this).

#ifndef DGCL_SERVICE_SERVICE_H_
#define DGCL_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "gnn/layers.h"
#include "runtime/recovery.h"
#include "runtime/transport.h"
#include "service/feature_cache.h"
#include "service/fetch_batcher.h"
#include "service/replica_set.h"
#include "service/request_queue.h"
#include "service/sampler.h"

namespace dgcl {

struct ServiceOptions {
  // Shards = devices of the serving topology (BuildPaperTopology), so the
  // transport decision table stays meaningful. 1..16.
  uint32_t num_shards = 4;
  uint32_t samplers_per_shard = 2;  // per replica
  // Read replicas per shard (replica_set.h). replicas = 1 keeps the
  // pre-replica behavior.
  ReplicationOptions replication;
  size_t request_queue_capacity = 64;  // per replica; full queue = backpressure
  size_t response_queue_capacity = 4096;
  // Deadline budget for a request end to end; also bounds worker poll waits
  // and response-queue pushes, so a stalled consumer cannot wedge a worker.
  uint64_t request_deadline_micros = 2'000'000;

  // The sampling strategy every request uses: one of SamplerNames()
  // ("uniform", "weighted", "random-walk"), built once at Create.
  std::string sampler = "uniform";

  // Cross-request batching of remote feature fetches (fetch_batcher.h).
  FetchBatchOptions fetch;

  // "multilevel" (METIS-substitute, the serving default) or "hash".
  std::string partitioner = "multilevel";

  // LRU feature cache in front of remote-row fetches (feature_cache.h).
  size_t cache_capacity_rows = 4096;
  std::string cache_policy = "lru";  // the only eviction policy; anything else fails Validate

  // Node features are generated deterministically at Create (stand-in for a
  // real feature store, like the dataset generators elsewhere).
  uint32_t feature_dim = 32;
  uint64_t feature_seed = 29;

  // Mini-batch inference stack (feature_dim -> hidden_dim -> ... per layer).
  GnnModel model = GnnModel::kGcn;
  uint32_t num_layers = 2;
  uint32_t hidden_dim = 16;
  uint64_t weight_seed = 31;

  // Wire emulation / fault injection for remote-row fetches, same knobs as
  // the training engine.
  TransportPolicy transport;
  FaultInjection faults;

  // Checks every knob except `sampler`, which Create resolves through
  // MakeSampler.
  Status Validate() const;
};

struct SampleRequest {
  uint64_t request_id = 0;
  uint32_t shard = 0;             // home shard
  // Seed vertices; empty => LocalNode-sample `num_seeds` locals of the home
  // shard (seeded by sample.seed, so still deterministic).
  std::vector<VertexId> seeds;
  uint32_t num_seeds = 16;
  SampleKHopOptions sample;       // per-request seed/hops/fanout
  bool run_inference = false;
  // Return the assembled feature rows for the sampled nodes (the training
  // path: MiniBatchTrainer consumes them as the mini-batch inputs).
  bool return_features = false;
  uint64_t submit_ns = 0;         // stamped by Submit/Serve
  // Serving replica, stamped by the router at Submit/Serve; requests
  // rerouted off a dying replica are re-stamped. Callers leave it unset.
  uint32_t replica = kInvalidId;
};

struct SampleResponse {
  uint64_t request_id = 0;
  uint32_t shard = 0;
  uint32_t replica = kInvalidId;      // replica that served the request
  Status status;                      // Ok / kUnavailable / kOutOfRange
  std::vector<uint32_t> suspects;     // dead shards implicated on kUnavailable
  std::vector<VertexId> nodes;        // sampled set, ascending global ids
  uint64_t cache_hits = 0;            // this request's remote-row cache hits
  uint64_t cache_misses = 0;
  uint64_t remote_rows = 0;           // rows needed from non-home shards
  double queue_seconds = 0.0;         // submit -> worker pop
  double latency_seconds = 0.0;       // submit -> response ready
  EmbeddingMatrix embeddings;         // run_inference: last-layer rows for `nodes`
  EmbeddingMatrix features;           // return_features: input rows for `nodes`
};

// Aggregate counters, readable at any time.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t shed = 0;         // rejected by backpressure (kResourceExhausted)
  uint64_t completed = 0;    // responses pushed with OK status
  uint64_t unavailable = 0;  // responses pushed with kUnavailable
  uint64_t responses_dropped = 0;  // response queue full past deadline
  // Replica routing/failover accounting (ReplicaSet::Stats, copied in by
  // stats()):
  uint64_t failovers = 0;      // requests rerouted off a dying replica
  uint64_t replica_kills = 0;  // committed replica deaths (KillReplica + KillShard)
  // Remote-fetch wire accounting (FetchBatcher::Stats, copied in by stats()):
  uint64_t fetch_messages = 0;   // Transmits issued for remote feature rows
  uint64_t fetch_rows = 0;       // rows those Transmits carried
  uint64_t fetch_bytes = 0;      // bytes on wire incl. per-message header
  uint64_t fetch_coalesced = 0;  // fetches that rode another fetch's Transmit
};

class GraphService {
 public:
  // The graph must outlive the service. Partitions, builds the
  // communication relation (the one ownership record: relation().source[v]
  // is v's shard, relation().local_vertices[s] shard s's vertices), the
  // connection table (from a P2P plan over that relation, built and dropped
  // here), the cache, and the sampler named by options.sampler; does not
  // start workers — call Start().
  static Result<std::unique_ptr<GraphService>> Create(const CsrGraph& graph,
                                                      ServiceOptions options);
  // Same, but serve `features` (one row per vertex, dim must equal
  // options.feature_dim) instead of generating rows from feature_seed — the
  // training path feeds label-correlated features this way. `features` must
  // be non-null and, like the graph, outlive the call (rows are copied).
  static Result<std::unique_ptr<GraphService>> Create(const CsrGraph& graph,
                                                      ServiceOptions options,
                                                      const EmbeddingMatrix* features);
  ~GraphService();

  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  // Spawns the per-shard sampler pools. Idempotent.
  void Start();
  // Closes every queue and joins all workers. Idempotent; ~GraphService
  // calls it.
  void Stop();

  // Non-blocking: routes the request to its home shard's queue.
  //  * kOutOfRange    — bad shard id (request not accepted)
  //  * kResourceExhausted — queue full (backpressure; request not accepted)
  //  * Ok             — accepted; a response WILL appear on the response
  //                     queue, kUnavailable when the home shard is dead.
  Status Submit(SampleRequest request);

  // Pops one response; nullopt after `timeout_micros`.
  std::optional<SampleResponse> PopResponse(uint64_t timeout_micros);

  // Synchronous path (no queues, calling thread does the work): for tests
  // and single-request callers. Start() not required.
  SampleResponse Serve(SampleRequest request);

  // Kills every remaining replica of the shard (bumping the membership
  // epoch), closes the shard's queues and fails everything
  // pending on them with kUnavailable (suspect = `shard`). Requests in
  // flight on its workers and later Submits to it also resolve to
  // kUnavailable. Fails when the shard is already dead or it is the last
  // one alive.
  Status KillShard(uint32_t shard);

  // Kills one replica. While survivors remain the shard keeps serving: the
  // dead replica's queued requests are rerouted to survivors (counted as
  // failovers in stats()), in-flight ones complete, and future Submits
  // route around it. Killing the last replica is KillShard for that shard.
  // Fails as ReplicaSet::KillReplica does: out-of-range ids, an already-dead
  // replica, or the last replica of the last alive shard.
  Status KillReplica(uint32_t shard, uint32_t replica);

  const CsrGraph& graph() const { return *graph_; }
  const ReplicaSet& replicas() const { return *replicas_; }
  const FeatureCache& cache() const { return *cache_; }
  // Ownership: source[v] is v's shard, local_vertices[s] shard s's
  // vertices (ascending).
  const CommRelation& relation() const { return relation_; }
  // The full feature matrix (row = global vertex id) — read-only; every
  // replica serves its rows, and the mini-batch trainer evaluates against it.
  const EmbeddingMatrix& features() const { return features_; }
  // Derived from the replica masks (ReplicaSet::membership_view).
  MembershipView membership() const;
  ServiceStats stats() const;
  const ServiceOptions& options() const { return options_; }

 private:
  GraphService() = default;

  struct Worker {
    std::thread thread;
  };

  void WorkerLoop(uint32_t shard, uint32_t replica);
  // Serves one request on the calling thread. `replica` is the serving
  // replica, stamped on the response; `layers` is that thread's private
  // inference stack.
  SampleResponse Process(SampleRequest& request, uint32_t replica,
                         std::vector<std::unique_ptr<GnnLayer>>& layers);
  // Feature assembly: local rows straight from features_, remote rows via
  // cache + connection-table fetch. Fails kUnavailable on a dead owner.
  Status AssembleFeatures(uint32_t home, const std::vector<VertexId>& nodes,
                          EmbeddingMatrix& slots, SampleResponse& response);
  std::vector<std::unique_ptr<GnnLayer>> MakeLayerStack() const;
  // kUnavailable response for a request whose home shard is dead.
  SampleResponse DeadHomeResponse(const SampleRequest& request) const;
  // Kills one replica with kill_mutex_ held: commits the death, closes the
  // replica's queue, and either reroutes its pending requests to survivors
  // (failover) or — when it was the shard's last replica — fails them and
  // everything else still queued on the shard with kUnavailable.
  Status KillReplicaLocked(uint32_t shard, uint32_t replica);
  // Routes `request` onto an alive replica's queue, rerouting across
  // replicas that die mid-push. Counts a successful route as a failover when
  // it was a reroute (or count_first_as_failover, the drain path). False when
  // no replica could take it: `shed` distinguishes a full queue
  // (backpressure) from a dead shard (caller answers kUnavailable).
  // block_micros > 0 waits that long for queue room instead of TryPush —
  // the drain path uses it so rerouted requests are never dropped.
  bool RouteToQueue(SampleRequest& request, bool count_first_as_failover, bool* shed,
                    uint64_t block_micros = 0);
  size_t QueueIndex(uint32_t shard, uint32_t replica) const {
    return static_cast<size_t>(shard) * options_.replication.replicas + replica;
  }
  void CountOutcome(const Status& status);
  // Counts the outcome and enqueues; false when the response queue stayed
  // full past the deadline (counted as dropped).
  bool PushResponse(SampleResponse response);

  ServiceOptions options_;
  const CsrGraph* graph_ = nullptr;
  CommRelation relation_;
  ConnectionTable connections_;
  // Serializes Transmit per connection (the engine's single-sender-per-pass
  // contract, upheld here across concurrent sampler workers).
  std::vector<std::unique_ptr<std::mutex>> connection_mutexes_;
  // options_.sampler, built at Create and shared by every worker (Sample is
  // const + thread-safe).
  std::unique_ptr<Sampler> sampler_;
  std::unique_ptr<FetchBatcher> fetch_batcher_;
  std::unique_ptr<FeatureCache> cache_;
  EmbeddingMatrix features_;  // [num_vertices x feature_dim], read-only

  // Routing and the replica masks, the service's only liveness state.
  std::unique_ptr<ReplicaSet> replicas_;
  // Serializes kill commits and the queue handoff after each (KillShard /
  // KillReplica); ReplicaSet::KillReplica relies on it.
  std::mutex kill_mutex_;

  // One queue per (shard, replica): request_queues_[QueueIndex(s, r)].
  std::vector<std::unique_ptr<BoundedQueue<SampleRequest>>> request_queues_;
  std::unique_ptr<BoundedQueue<SampleResponse>> responses_;
  std::vector<Worker> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  // Sync-path layer stack (Serve), guarded: Serve may race with itself.
  std::mutex sync_mutex_;
  std::vector<std::unique_ptr<GnnLayer>> sync_layers_;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
};

}  // namespace dgcl

#endif  // DGCL_SERVICE_SERVICE_H_
