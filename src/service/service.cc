#include "service/service.h"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "common/ids.h"
#include "common/logging.h"
#include "common/rng.h"
#include "partition/multilevel.h"
#include "planner/baselines.h"
#include "telemetry/trace.h"
#include "topology/presets.h"

namespace dgcl {

namespace {

// Worker poll granularity: short enough that Stop()/Close() is noticed
// promptly, long enough to not spin.
constexpr uint64_t kMaxPollMicros = 50'000;

}  // namespace

Status ServiceOptions::Validate() const {
  if (num_shards < 1 || num_shards > 16) {
    return Status::InvalidArgument("num_shards must be in [1, 16], got " +
                                   std::to_string(num_shards));
  }
  if (samplers_per_shard < 1) {
    return Status::InvalidArgument("samplers_per_shard must be >= 1");
  }
  DGCL_RETURN_IF_ERROR(replication.Validate());
  if (request_queue_capacity < 1 || response_queue_capacity < 1) {
    return Status::InvalidArgument("queue capacities must be >= 1");
  }
  if (request_deadline_micros == 0) {
    return Status::InvalidArgument("request_deadline_micros must be > 0");
  }
  DGCL_RETURN_IF_ERROR(fetch.Validate());
  if (partitioner != "multilevel" && partitioner != "hash") {
    return Status::InvalidArgument("unknown partitioner '" + partitioner +
                                   "' (want multilevel|hash)");
  }
  if (cache_capacity_rows < 1) {
    return Status::InvalidArgument("cache_capacity_rows must be >= 1");
  }
  if (cache_policy != "lru") {
    return Status::InvalidArgument("unknown cache_policy '" + cache_policy + "' (want lru)");
  }
  if (feature_dim < 1) {
    return Status::InvalidArgument("feature_dim must be >= 1");
  }
  if (num_layers < 1 || hidden_dim < 1) {
    return Status::InvalidArgument("num_layers and hidden_dim must be >= 1");
  }
  DGCL_RETURN_IF_ERROR(transport.Validate());
  DGCL_RETURN_IF_ERROR(faults.Validate());
  return Status::Ok();
}

Result<std::unique_ptr<GraphService>> GraphService::Create(const CsrGraph& graph,
                                                           ServiceOptions options) {
  return Create(graph, std::move(options), nullptr);
}

Result<std::unique_ptr<GraphService>> GraphService::Create(const CsrGraph& graph,
                                                           ServiceOptions options,
                                                           const EmbeddingMatrix* features) {
  DGCL_RETURN_IF_ERROR(options.Validate());
  if (graph.num_vertices() == 0) {
    return Status::InvalidArgument("cannot serve an empty graph");
  }
  if (features != nullptr && (features->rows != graph.num_vertices() ||
                              features->dim != options.feature_dim)) {
    return Status::InvalidArgument(
        "injected features must be [num_vertices x feature_dim], got " +
        std::to_string(features->rows) + "x" + std::to_string(features->dim));
  }

  std::unique_ptr<GraphService> service(new GraphService());
  // Resolved before the expensive set-up so an unknown name fails fast; the
  // sampler only keeps the relation's address, filled in below.
  DGCL_ASSIGN_OR_RETURN(service->sampler_,
                        MakeSampler(options.sampler, &graph, &service->relation_));
  service->options_ = options;
  service->graph_ = &graph;

  Partitioning partitioning;
  if (options.partitioner == "hash") {
    HashPartitioner partitioner;
    DGCL_ASSIGN_OR_RETURN(partitioning, partitioner.Partition(graph, options.num_shards));
  } else {
    MultilevelPartitioner partitioner;
    DGCL_ASSIGN_OR_RETURN(partitioning, partitioner.Partition(graph, options.num_shards));
  }
  DGCL_ASSIGN_OR_RETURN(service->relation_, BuildCommRelation(graph, partitioning));
  const Topology topology = BuildPaperTopology(options.num_shards);

  // Remote-feature fetches are point-to-point row pulls, so the serving plan
  // is the P2P baseline over the relation; what matters is the per-pair
  // transport decision table the connections inherit from it.
  const CommClasses classes = BuildCommClasses(service->relation_);
  PeerToPeerPlanner planner;
  DGCL_ASSIGN_OR_RETURN(
      ClassPlan plan,
      planner.PlanClasses(classes, topology,
                          static_cast<double>(options.feature_dim) * sizeof(float)));
  DGCL_ASSIGN_OR_RETURN(service->connections_,
                        ConnectionTable::Build(topology, CompilePlan(plan, classes, topology),
                                               options.transport, options.faults, {}));
  service->connection_mutexes_.reserve(static_cast<size_t>(options.num_shards) *
                                       options.num_shards);
  for (uint32_t i = 0; i < options.num_shards * options.num_shards; ++i) {
    service->connection_mutexes_.push_back(std::make_unique<std::mutex>());
  }

  // Feature store stand-in: every shard would hold its locals' rows; here
  // one read-only matrix plays all of them — the caller's, or rows generated
  // deterministically from feature_seed.
  if (features != nullptr) {
    service->features_ = *features;
  } else {
    service->features_.rows = graph.num_vertices();
    service->features_.dim = options.feature_dim;
    service->features_.data.resize(static_cast<size_t>(graph.num_vertices()) *
                                   options.feature_dim);
    Rng feature_rng(options.feature_seed);
    for (float& x : service->features_.data) {
      x = feature_rng.UniformFloat(-1.0f, 1.0f);
    }
  }
  service->fetch_batcher_ = std::make_unique<FetchBatcher>(
      options.num_shards, static_cast<uint64_t>(options.feature_dim) * sizeof(float),
      options.request_deadline_micros, options.fetch);

  service->cache_ =
      std::make_unique<FeatureCache>(options.cache_capacity_rows, options.feature_dim);

  DGCL_ASSIGN_OR_RETURN(service->replicas_,
                        ReplicaSet::Build(options.num_shards, options.replication));

  const size_t num_queues =
      static_cast<size_t>(options.num_shards) * options.replication.replicas;
  service->request_queues_.reserve(num_queues);
  for (size_t q = 0; q < num_queues; ++q) {
    service->request_queues_.push_back(
        std::make_unique<BoundedQueue<SampleRequest>>(options.request_queue_capacity));
  }
  service->responses_ =
      std::make_unique<BoundedQueue<SampleResponse>>(options.response_queue_capacity);

  service->sync_layers_ = service->MakeLayerStack();
  return service;
}

GraphService::~GraphService() { Stop(); }

void GraphService::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true) ||
      stopping_.load(std::memory_order_acquire)) {
    return;
  }
  const uint32_t replicas = options_.replication.replicas;
  const size_t num_workers = static_cast<size_t>(options_.num_shards) * replicas *
                             options_.samplers_per_shard;
  workers_.reserve(num_workers);
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    for (uint32_t replica = 0; replica < replicas; ++replica) {
      for (uint32_t i = 0; i < options_.samplers_per_shard; ++i) {
        workers_.push_back(
            Worker{std::thread(&GraphService::WorkerLoop, this, shard, replica)});
      }
    }
  }
}

void GraphService::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  for (auto& queue : request_queues_) {
    queue->Close();
  }
  for (Worker& worker : workers_) {
    if (worker.thread.joinable()) {
      worker.thread.join();
    }
  }
  workers_.clear();
  if (responses_ != nullptr) {
    responses_->Close();
  }
}

Status GraphService::Submit(SampleRequest request) {
  if (request.shard >= options_.num_shards) {
    return Status::OutOfRange("shard " + std::to_string(request.shard) + " >= num_shards " +
                              std::to_string(options_.num_shards));
  }
  request.submit_ns = telemetry::Telemetry::NowNs();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submitted;
  }
  bool shed = false;
  if (RouteToQueue(request, /*count_first_as_failover=*/false, &shed)) {
    return Status::Ok();
  }
  if (shed) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.shed;
    }
    DGCL_TCOUNT1("service", "request.shed", 1, "shard", request.shard);
    return Status::ResourceExhausted("shard " + std::to_string(request.shard) +
                                     " request queue is full");
  }
  // No live replica: accepted, fails asynchronously like the drain answers
  // pending requests.
  PushResponse(DeadHomeResponse(request));
  return Status::Ok();
}

bool GraphService::RouteToQueue(SampleRequest& request, bool count_first_as_failover,
                                bool* shed, uint64_t block_micros) {
  if (shed != nullptr) {
    *shed = false;
  }
  bool is_failover = count_first_as_failover;
  while (true) {
    Result<uint32_t> routed = replicas_->Route(request.shard);
    if (!routed.ok()) {
      return false;  // shard has no live replicas
    }
    const uint32_t replica = *routed;
    request.replica = replica;
    BoundedQueue<SampleRequest>& queue = *request_queues_[QueueIndex(request.shard, replica)];
    const bool pushed =
        block_micros > 0 ? queue.Push(request, block_micros) : queue.TryPush(request);
    if (pushed) {
      if (is_failover) {
        replicas_->CountFailover();
      }
      return true;
    }
    if (queue.closed() || !replicas_->ReplicaAlive(request.shard, replica)) {
      // Lost the race with a kill between Route and push: retry on a
      // survivor (or fall out kUnavailable when none remain).
      is_failover = true;
      continue;
    }
    if (shed != nullptr) {
      *shed = true;  // alive replica, full queue: backpressure
    }
    return false;
  }
}

std::optional<SampleResponse> GraphService::PopResponse(uint64_t timeout_micros) {
  return responses_->Pop(timeout_micros);
}

SampleResponse GraphService::Serve(SampleRequest request) {
  request.submit_ns = telemetry::Telemetry::NowNs();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submitted;
  }
  SampleResponse response;
  if (request.shard >= options_.num_shards) {
    response.request_id = request.request_id;
    response.shard = request.shard;
    response.status = Status::OutOfRange("shard " + std::to_string(request.shard) +
                                         " >= num_shards " + std::to_string(options_.num_shards));
    return response;
  }
  // Route exactly like Submit so the sync path exercises (and counts in the
  // routed stats) the same replica selection; a dead shard leaves replica
  // unset and Process answers kUnavailable.
  Result<uint32_t> routed = replicas_->Route(request.shard);
  const uint32_t replica = routed.ok() ? *routed : kInvalidId;
  request.replica = replica;
  {
    std::lock_guard<std::mutex> lock(sync_mutex_);
    response = Process(request, replica, sync_layers_);
  }
  CountOutcome(response.status);
  return response;
}

Status GraphService::KillShard(uint32_t shard) {
  if (shard >= options_.num_shards) {
    return Status::OutOfRange("shard " + std::to_string(shard) + " >= num_shards " +
                              std::to_string(options_.num_shards));
  }
  std::lock_guard<std::mutex> lock(kill_mutex_);
  uint32_t mask = replicas_->AliveReplicaMask(shard);
  if (mask == 0) {
    return Status::InvalidArgument("shard " + std::to_string(shard) + " is already dead");
  }
  // Atomicity pre-check: ReplicaSet refuses to kill the last replica of the
  // last alive shard. Check up front so a doomed KillShard fails before
  // killing ANY replica.
  if (replicas_->AliveShards() == (DeviceMask{1} << shard)) {
    return Status::FailedPrecondition("KillShard(" + std::to_string(shard) +
                                      ") would leave no shard alive");
  }
  while (mask != 0) {
    const uint32_t replica = static_cast<uint32_t>(std::countr_zero(mask));
    mask &= mask - 1;
    DGCL_RETURN_IF_ERROR(KillReplicaLocked(shard, replica));
  }
  DGCL_TCOUNT1("service", "shard.killed", 1, "shard", shard);
  return Status::Ok();
}

Status GraphService::KillReplica(uint32_t shard, uint32_t replica) {
  std::lock_guard<std::mutex> lock(kill_mutex_);
  DGCL_RETURN_IF_ERROR(KillReplicaLocked(shard, replica));
  if (!replicas_->ShardAlive(shard)) {
    // Killing the last replica IS a shard kill; keep the counter stream the
    // one KillShard emits so traces agree on shard deaths.
    DGCL_TCOUNT1("service", "shard.killed", 1, "shard", shard);
  }
  return Status::Ok();
}

Status GraphService::KillReplicaLocked(uint32_t shard, uint32_t replica) {
  // The mask commit is the decision point: already-dead replicas and
  // no-survivor kills are rejected there before any state here mutates.
  DGCL_RETURN_IF_ERROR(replicas_->KillReplica(shard, replica));
  DGCL_TCOUNT1("service", "replica.killed", 1, "shard", shard);
  const bool survivors = replicas_->ShardAlive(shard);
  // Close the dead replica's queue (its workers drain what they already
  // popped, then exit) and hand its pending requests over: to survivors
  // while any remain — counted as failovers, never failed — or to
  // kUnavailable responses when this was the shard's last replica.
  BoundedQueue<SampleRequest>& queue = *request_queues_[QueueIndex(shard, replica)];
  queue.Close();
  while (std::optional<SampleRequest> pending = queue.TryPop()) {
    if (!survivors) {
      PushResponse(DeadHomeResponse(*pending));
      continue;
    }
    bool shed = false;
    if (RouteToQueue(*pending, /*count_first_as_failover=*/true, &shed,
                     options_.request_deadline_micros)) {
      continue;
    }
    // Survivors exist but none took it within the deadline (only reachable
    // when their queues stay full that long, e.g. workers never started):
    // answer backpressure, not a false shard death.
    SampleResponse response;
    response.request_id = pending->request_id;
    response.shard = pending->shard;
    response.status = Status::ResourceExhausted(
        "shard " + std::to_string(shard) + " survivors could not absorb rerouted request");
    PushResponse(std::move(response));
  }
  return Status::Ok();
}

MembershipView GraphService::membership() const { return replicas_->membership_view(); }

ServiceStats GraphService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  const FetchBatcher::Stats fetch = fetch_batcher_->stats();
  out.fetch_messages = fetch.messages;
  out.fetch_rows = fetch.rows;
  out.fetch_bytes = fetch.bytes;
  out.fetch_coalesced = fetch.coalesced;
  const ReplicaSet::Stats replicas = replicas_->stats();
  out.failovers = replicas.failovers;
  out.replica_kills = replicas.replica_kills;
  return out;
}

void GraphService::WorkerLoop(uint32_t shard, uint32_t replica) {
  std::vector<std::unique_ptr<GnnLayer>> layers = MakeLayerStack();
  BoundedQueue<SampleRequest>& queue = *request_queues_[QueueIndex(shard, replica)];
  const uint64_t poll_micros = std::min<uint64_t>(options_.request_deadline_micros, kMaxPollMicros);
  while (true) {
    std::optional<SampleRequest> request = queue.Pop(poll_micros);
    if (!request) {
      if (queue.closed() || stopping_.load(std::memory_order_acquire)) {
        return;
      }
      continue;
    }
    PushResponse(Process(*request, replica, layers));
  }
}

SampleResponse GraphService::Process(SampleRequest& request, uint32_t replica,
                                     std::vector<std::unique_ptr<GnnLayer>>& layers) {
  const uint64_t pop_ns = telemetry::Telemetry::NowNs();
  const uint64_t start_ns = request.submit_ns != 0 ? request.submit_ns : pop_ns;
  const uint32_t home = request.shard;

  SampleResponse response;
  response.request_id = request.request_id;
  response.shard = home;
  response.replica = replica;
  if (pop_ns > start_ns) {
    response.queue_seconds = static_cast<double>(pop_ns - start_ns) * 1e-9;
    if (telemetry::Telemetry::Enabled()) {
      telemetry::Telemetry::Get().RecorderForThisThread().RecordSpan(
          "service", "serve.queue", start_ns, pop_ns - start_ns, "shard", home);
    }
  }

  Status status;
  do {
    const DeviceMask alive = replicas_->AliveShards();
    if (((alive >> home) & 1) == 0) {
      response.suspects.push_back(home);
      status = Status::Unavailable("home shard " + std::to_string(home) + " is dead");
      break;
    }

    std::vector<VertexId> seeds = std::move(request.seeds);
    if (seeds.empty()) {
      seeds = SampleLocalNodes(relation_.local_vertices[home], home, request.num_seeds,
                               request.sample.seed);
    }

    uint32_t dead_shard = kInvalidId;
    Result<SampleResult> sampled = [&]() -> Result<SampleResult> {
      DGCL_TSPAN1("service", sampler_->span_name(), "shard", home);
      return sampler_->Sample(home, seeds, request.sample, alive, &dead_shard);
    }();
    if (!sampled.ok()) {
      if (dead_shard != kInvalidId) {
        response.suspects.push_back(dead_shard);
      }
      status = sampled.status();
      break;
    }
    response.nodes = std::move(sampled->nodes);

    EmbeddingMatrix slots;
    {
      DGCL_TSPAN2("service", "serve.features", "shard", home, "nodes", response.nodes.size());
      status = AssembleFeatures(home, response.nodes, slots, response);
    }
    if (!status.ok()) {
      break;
    }

    if (request.run_inference) {
      DGCL_TSPAN2("service", "serve.infer", "shard", home, "nodes", response.nodes.size());
      CsrGraph subgraph = graph_->InducedSubgraph(response.nodes);
      LocalGraph local = FullLocalGraph(subgraph);
      response.embeddings = InferenceForward(local, slots, layers);
    }
    if (request.return_features) {
      response.features = std::move(slots);
    }
  } while (false);

  response.status = std::move(status);
  const uint64_t end_ns = telemetry::Telemetry::NowNs();
  response.latency_seconds = end_ns > start_ns ? static_cast<double>(end_ns - start_ns) * 1e-9 : 0.0;
  if (telemetry::Telemetry::Enabled()) {
    telemetry::Telemetry::Get().RecorderForThisThread().RecordSpan(
        "service", "serve.request", start_ns, end_ns - start_ns, "shard", home, "replica",
        replica, "ok", response.status.ok() ? 1 : 0);
  }
  return response;
}

Status GraphService::AssembleFeatures(uint32_t home, const std::vector<VertexId>& nodes,
                                      EmbeddingMatrix& slots, SampleResponse& response) {
  const uint32_t dim = options_.feature_dim;
  slots.rows = static_cast<uint32_t>(nodes.size());
  slots.dim = dim;
  slots.data.assign(nodes.size() * static_cast<size_t>(dim), 0.0f);

  // owner shard -> slot rows still needing its feature rows.
  std::map<uint32_t, std::vector<size_t>> missing_by_owner;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const VertexId v = nodes[i];
    const uint32_t owner = relation_.source[v];
    if (owner == home) {
      std::copy_n(features_.Row(v), dim, slots.Row(static_cast<uint32_t>(i)));
      continue;
    }
    ++response.remote_rows;
    if (cache_->Lookup(v, slots.Row(static_cast<uint32_t>(i)))) {
      ++response.cache_hits;
      continue;
    }
    ++response.cache_misses;
    missing_by_owner[owner].push_back(i);
  }
  // One event per request and outcome, carrying the request's totals: the
  // trace's counter sums equal the cache's Stats without a ring entry per
  // lookup.
  if (response.cache_hits > 0) {
    DGCL_TCOUNT("service", "cache.hit", response.cache_hits);
  }
  if (response.cache_misses > 0) {
    DGCL_TCOUNT("service", "cache.miss", response.cache_misses);
  }

  const DeviceMask alive = replicas_->AliveShards();
  Status status = Status::Ok();
  uint64_t evictions = 0;
  for (const auto& [owner, slots_needed] : missing_by_owner) {
    if (((alive >> owner) & 1) == 0) {
      response.suspects.push_back(owner);
      status = Status::Unavailable("feature owner shard " + std::to_string(owner) + " is dead");
      break;
    }
    // The fetch is priced on the pair's connection (transport selection,
    // faults, retry) when the P2P plan routed traffic owner->home; pairs the
    // relation never linked have no connection and the fetch is free wire-wise
    // (counted, so a trace shows how often sampling out-runs the plan). With
    // batching enabled the batcher may merge this call's rows into another
    // request's Transmit (fetch_batcher.h); either way exactly one member
    // puts the batch on the wire, under the pair's connection mutex.
    if (Connection* connection = connections_.FindMutable(owner, home)) {
      const Status transmitted =
          fetch_batcher_->Fetch(owner, home, slots_needed.size(), [&](uint64_t bytes) {
            std::mutex& transmit_mutex =
                *connection_mutexes_[static_cast<size_t>(owner) * options_.num_shards + home];
            std::lock_guard<std::mutex> lock(transmit_mutex);
            return connection->Transmit(bytes);
          });
      if (!transmitted.ok()) {
        response.suspects.push_back(owner);
        status = transmitted;
        break;
      }
    } else {
      DGCL_TCOUNT1("service", "fetch.unplanned", 1, "owner", owner);
    }
    for (const size_t i : slots_needed) {
      const VertexId v = nodes[i];
      std::copy_n(features_.Row(v), dim, slots.Row(static_cast<uint32_t>(i)));
      evictions += cache_->Insert(v, features_.Row(v)) ? 1 : 0;
    }
  }
  if (evictions > 0) {
    DGCL_TCOUNT("service", "cache.evict", evictions);
  }
  return status;
}

std::vector<std::unique_ptr<GnnLayer>> GraphService::MakeLayerStack() const {
  // Every stack is seeded identically, so all workers (and the sync path)
  // hold replica weights — inference output is a pure function of the
  // request, whichever worker serves it.
  Rng rng(options_.weight_seed);
  std::vector<std::unique_ptr<GnnLayer>> layers;
  layers.reserve(options_.num_layers);
  uint32_t dim_in = options_.feature_dim;
  for (uint32_t layer = 0; layer < options_.num_layers; ++layer) {
    layers.push_back(MakeLayer(options_.model, dim_in, options_.hidden_dim, rng));
    dim_in = options_.hidden_dim;
  }
  return layers;
}

SampleResponse GraphService::DeadHomeResponse(const SampleRequest& request) const {
  SampleResponse response;
  response.request_id = request.request_id;
  response.shard = request.shard;
  response.suspects.push_back(request.shard);
  response.status =
      Status::Unavailable("home shard " + std::to_string(request.shard) + " is dead");
  const uint64_t now_ns = telemetry::Telemetry::NowNs();
  if (request.submit_ns != 0 && now_ns > request.submit_ns) {
    response.latency_seconds = static_cast<double>(now_ns - request.submit_ns) * 1e-9;
  }
  return response;
}

void GraphService::CountOutcome(const Status& status) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (status.ok()) {
    ++stats_.completed;
  } else if (status.code() == StatusCode::kUnavailable) {
    ++stats_.unavailable;
  }
}

bool GraphService::PushResponse(SampleResponse response) {
  CountOutcome(response.status);
  if (!responses_->Push(std::move(response), options_.request_deadline_micros)) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.responses_dropped;
    return false;
  }
  return true;
}

}  // namespace dgcl
