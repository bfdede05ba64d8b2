// Serving tier under open-loop load: latency percentiles, cache hit rate and
// throughput vs shard count, a mid-load shard kill, plus the replica tier:
// throughput vs replicas-per-shard and a kill-replicas-under-load contract.
//
// An open-loop generator submits mini-batch sample+inference requests on a
// fixed schedule regardless of completions (so a saturated service shows up
// as shed requests and fat tails, not as a silently slowed generator), round-
// robin across shards, while a drain thread collects responses. For each
// (shard count, cache capacity) the bench reports p50/p99/p999 end-to-end
// latency, the feature cache's measured hit rate, and completed throughput.
// Capacity 1 defeats the cache (every remote row is fetched), so the two
// capacities measure what the cache buys.
// The shard-kill phase kills one shard mid-load and checks the failure
// contract: every request touching the dead shard completes kUnavailable
// naming it as suspect — no hangs, no drops.
//
// The replica phases run a CLOSED-loop saturating read-heavy workload
// (remote fetches pay real emulated wire latency, so workers block on the
// wire and extra replicas buy genuine concurrency even on small hosts):
//  * sweep — R in {1, 2, 3}, same request schedule each run; reports
//    completed throughput and an order-independent response digest. The
//    read-scaling contract requires R=2 to out-serve R=1.
//  * kill — R=2, one replica of EVERY shard killed mid-load; the contract
//    requires zero kUnavailable (survivors absorb everything) and a digest
//    byte-identical to the unkilled R=1 run.
//
// Usage: bench_serving [--json out.json] [--trace out.json]

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/percentile.h"
#include "common/table_printer.h"
#include "service/service.h"

namespace dgcl {
namespace {

constexpr uint32_t kRequestsPerConfig = 1200;
constexpr double kOfferedRps = 3000.0;  // open-loop schedule, per config

struct LoadResult {
  uint64_t completed = 0;
  uint64_t unavailable = 0;
  uint64_t shed = 0;
  uint64_t suspect_named = 0;  // kUnavailable responses naming a suspect
  std::vector<double> latencies_ms;  // OK responses
  double max_unavailable_ms = 0.0;
  double wall_seconds = 0.0;
};

// Offers `num_requests` requests at kOfferedRps, round-robin over the alive
// shards (dead ones keep receiving traffic — that is the point of the kill
// phase). `kill_shard` != kInvalidId kills that shard after half the load.
LoadResult OfferLoad(GraphService& service, uint32_t num_requests, uint64_t seed_base,
                     uint32_t kill_shard) {
  LoadResult result;
  std::vector<SampleResponse> responses;
  responses.reserve(num_requests);
  std::thread drainer([&] {
    // The generator stops producing once every accepted request is answered;
    // a bounded pop keeps the drainer from hanging if the contract breaks.
    while (true) {
      std::optional<SampleResponse> response = service.PopResponse(200'000);
      if (!response) {
        break;
      }
      responses.push_back(std::move(*response));
    }
  });

  const uint32_t num_shards = service.options().num_shards;
  const auto start = std::chrono::steady_clock::now();
  const double period_s = 1.0 / kOfferedRps;
  uint64_t accepted = 0;
  for (uint32_t i = 0; i < num_requests; ++i) {
    // Open loop: wait until this request's scheduled offset, never earlier.
    const auto due = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(i * period_s));
    std::this_thread::sleep_until(due);
    if (kill_shard != kInvalidId && i == num_requests / 2) {
      Status killed = service.KillShard(kill_shard);
      if (!killed.ok()) {
        std::printf("KillShard failed: %s\n", killed.ToString().c_str());
      }
    }
    SampleRequest request;
    request.request_id = i;
    request.shard = i % num_shards;
    request.num_seeds = 16;
    request.sample.seed = seed_base + i;
    request.run_inference = (i % 8) == 0;
    Status status = service.Submit(std::move(request));
    if (status.ok()) {
      ++accepted;
    } else {
      ++result.shed;
    }
  }
  // Every accepted request must produce exactly one response; wait for them.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (responses.size() + 0 < accepted && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  service.Stop();  // closes the response queue; drainer exits after draining
  drainer.join();

  for (const SampleResponse& response : responses) {
    if (response.status.ok()) {
      ++result.completed;
      result.latencies_ms.push_back(response.latency_seconds * 1e3);
    } else if (response.status.code() == StatusCode::kUnavailable) {
      ++result.unavailable;
      if (!response.suspects.empty()) {
        ++result.suspect_named;
      }
      result.max_unavailable_ms =
          std::max(result.max_unavailable_ms, response.latency_seconds * 1e3);
    }
  }
  return result;
}

// ---- replica phases ---------------------------------------------------------

constexpr uint32_t kReplicaRequests = 600;
constexpr uint32_t kReplicaWindow = 48;  // closed-loop in-flight cap

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

// Order-independent digest of one response's payload: responses arrive in
// arbitrary order, so per-request digests are XOR-combined. Equal aggregate
// digests across runs mean every request got byte-identical nodes+features.
uint64_t ResponseDigest(const SampleResponse& response) {
  uint64_t h = Fnv1a(&response.request_id, sizeof(response.request_id), 1469598103934665603ull);
  h = Fnv1a(response.nodes.data(), response.nodes.size() * sizeof(VertexId), h);
  h = Fnv1a(response.features.data.data(), response.features.data.size() * sizeof(float), h);
  return h;
}

// The read-heavy replica workload: remote-row fetches pay 1 ms of emulated
// wire latency per owner (all transports), the cache is tiny, inference is
// off — a request's service time is dominated by blocked wire waits, so
// throughput scales with how many requests the shard can have on the wire
// at once, i.e. with its replica pool width.
ServiceOptions ReplicaOptions(uint32_t replicas) {
  ServiceOptions options;
  options.num_shards = 4;
  options.samplers_per_shard = 2;
  options.replication.replicas = replicas;
  options.cache_capacity_rows = 64;
  options.faults.latency_micros = 1000;
  options.faults.all_transports = true;
  return options;
}

struct ReplicaLoadResult {
  uint64_t completed = 0;
  uint64_t unavailable = 0;
  uint64_t failed_other = 0;
  uint64_t shed = 0;
  double wall_seconds = 0.0;
  uint64_t digest = 0;
};

// Closed-loop load: up to kReplicaWindow requests in flight, so the service
// runs saturated but never sheds. `kill_one_replica_per_shard` kills replica
// 0 of every shard after half the load. Stops the service before returning.
ReplicaLoadResult SaturateLoad(GraphService& service, uint32_t num_requests, uint64_t seed_base,
                               bool kill_one_replica_per_shard) {
  ReplicaLoadResult result;
  std::mutex mutex;
  std::condition_variable cv;
  uint32_t in_flight = 0;
  std::atomic<bool> submitted_all{false};
  std::atomic<bool> stop_draining{false};
  std::atomic<uint64_t> digest{0};

  const auto start = std::chrono::steady_clock::now();
  std::thread drainer([&] {
    while (true) {
      std::optional<SampleResponse> response = service.PopResponse(200'000);
      if (!response) {
        if (stop_draining.load(std::memory_order_acquire)) {
          return;  // service stopped: a still-nonzero in_flight is a lost response
        }
        if (submitted_all.load(std::memory_order_acquire)) {
          std::lock_guard<std::mutex> lock(mutex);
          if (in_flight == 0) {
            return;
          }
        }
        continue;
      }
      if (response->status.ok()) {
        ++result.completed;
        digest.fetch_xor(ResponseDigest(*response), std::memory_order_relaxed);
      } else if (response->status.code() == StatusCode::kUnavailable) {
        ++result.unavailable;
      } else {
        ++result.failed_other;
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        --in_flight;
      }
      cv.notify_all();
    }
  });

  const uint32_t num_shards = service.options().num_shards;
  for (uint32_t i = 0; i < num_requests; ++i) {
    if (kill_one_replica_per_shard && i == num_requests / 2) {
      for (uint32_t s = 0; s < num_shards; ++s) {
        Status killed = service.KillReplica(s, 0);
        if (!killed.ok()) {
          std::printf("KillReplica(%u, 0) failed: %s\n", s, killed.ToString().c_str());
        }
      }
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return in_flight < kReplicaWindow; });
      ++in_flight;
    }
    SampleRequest request;
    request.request_id = i;
    request.shard = i % num_shards;
    request.num_seeds = 6;
    request.sample = {2, 4, seed_base + i};
    request.return_features = true;
    Status status = service.Submit(std::move(request));
    if (!status.ok()) {
      ++result.shed;
      std::lock_guard<std::mutex> lock(mutex);
      --in_flight;
    }
  }
  submitted_all.store(true, std::memory_order_release);
  {
    // Bounded wait so a broken contract (lost response) cannot hang the
    // bench; the drainer notices in_flight == 0 on its next poll.
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return in_flight == 0; });
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  stop_draining.store(true, std::memory_order_release);
  service.Stop();
  drainer.join();
  result.digest = digest.load(std::memory_order_relaxed);
  return result;
}

int Run(int argc, char** argv) {
  auto json_path = bench::ConsumeJsonFlag(&argc, argv);
  auto trace_path = bench::ConsumeTraceFlag(&argc, argv);
  bench::PrintHeader("Graph service tier: open-loop serving latency vs shard count");

  Dataset dataset = MakeDataset(DatasetId::kReddit, bench::InverseScale(DatasetId::kReddit) * 4);
  std::printf("dataset %s: %u vertices, %llu edges\n\n", dataset.name.c_str(),
              dataset.graph.num_vertices(),
              static_cast<unsigned long long>(dataset.graph.num_edges()));

  const uint32_t kShardCounts[] = {2, 4, 8};
  // 256 rows is well under the remote set, so evictions happen.
  const size_t kCacheCapacities[] = {1, 256};

  TablePrinter table({"Shards", "Cache rows", "Offered", "Shed", "p50 ms", "p99 ms", "p999 ms",
                      "Hit rate", "req/s"});
  std::vector<bench::JsonRecord> records;
  for (uint32_t shards : kShardCounts) {
    for (const size_t capacity : kCacheCapacities) {
      ServiceOptions options;
      options.num_shards = shards;
      options.samplers_per_shard = 2;
      options.cache_capacity_rows = capacity;
      auto service = GraphService::Create(dataset.graph, options);
      if (!service.ok()) {
        std::printf("Create(%u, %zu) failed: %s\n", shards, capacity,
                    service.status().ToString().c_str());
        return 1;
      }
      (*service)->Start();
      LoadResult load = OfferLoad(**service, kRequestsPerConfig, 1000ull * shards, kInvalidId);
      const FeatureCache::Stats cache = (*service)->cache().stats();
      const double p50 = Percentile(load.latencies_ms, 0.50);
      const double p99 = Percentile(load.latencies_ms, 0.99);
      const double p999 = Percentile(load.latencies_ms, 0.999);
      const double rps = load.wall_seconds > 0
                             ? static_cast<double>(load.completed) / load.wall_seconds
                             : 0.0;
      table.AddRow({std::to_string(shards), std::to_string(capacity),
                    std::to_string(kRequestsPerConfig),
                    std::to_string(load.shed), TablePrinter::Fmt(p50, 3),
                    TablePrinter::Fmt(p99, 3), TablePrinter::Fmt(p999, 3),
                    TablePrinter::Fmt(cache.HitRate(), 3), TablePrinter::Fmt(rps, 0)});
      bench::JsonRecord record;
      record.AddString("phase", "steady");
      record.AddInt("shards", shards);
      record.AddInt("cache_capacity_rows", capacity);
      record.AddInt("offered", kRequestsPerConfig);
      record.AddInt("completed", load.completed);
      record.AddInt("shed", load.shed);
      record.AddNumber("p50_ms", p50);
      record.AddNumber("p99_ms", p99);
      record.AddNumber("p999_ms", p999);
      record.AddNumber("cache_hit_rate", cache.HitRate());
      record.AddInt("cache_evictions", cache.evictions);
      record.AddNumber("throughput_rps", rps);
      records.push_back(std::move(record));
    }
  }
  std::printf("%s\n", table.Render().c_str());

  // ---- kill phase: one shard dies under load --------------------------------
  {
    ServiceOptions options;
    options.num_shards = 4;
    options.samplers_per_shard = 2;
    options.cache_capacity_rows = 256;
    auto service = GraphService::Create(dataset.graph, options);
    if (!service.ok()) {
      std::printf("kill-phase Create failed: %s\n", service.status().ToString().c_str());
      return 1;
    }
    (*service)->Start();
    const uint32_t kill_shard = 1;
    LoadResult load = OfferLoad(**service, kRequestsPerConfig, 7000, kill_shard);
    const bool contract_held = load.unavailable > 0 && load.suspect_named == load.unavailable;
    std::printf(
        "kill phase (4 shards, shard %u dies mid-load): %llu ok, %llu unavailable "
        "(%llu naming a suspect), %llu shed, slowest failure %.3f ms — contract %s\n",
        kill_shard, static_cast<unsigned long long>(load.completed),
        static_cast<unsigned long long>(load.unavailable),
        static_cast<unsigned long long>(load.suspect_named),
        static_cast<unsigned long long>(load.shed), load.max_unavailable_ms,
        contract_held ? "HELD" : "VIOLATED");
    bench::JsonRecord record;
    record.AddString("phase", "kill");
    record.AddInt("shards", 4);
    record.AddInt("killed_shard", kill_shard);
    record.AddInt("completed", load.completed);
    record.AddInt("unavailable", load.unavailable);
    record.AddInt("suspect_named", load.suspect_named);
    record.AddInt("shed", load.shed);
    record.AddNumber("max_unavailable_ms", load.max_unavailable_ms);
    record.AddString("contract", contract_held ? "held" : "violated");
    records.push_back(std::move(record));
    if (!contract_held) {
      return 1;
    }
  }

  // ---- replica sweep: throughput vs replicas-per-shard ----------------------
  uint64_t r1_digest = 0;
  double r1_rps = 0.0;
  double r2_rps = 0.0;
  {
    TablePrinter replica_table({"Replicas", "Offered", "Completed", "Unavail", "req/s", "Digest"});
    for (uint32_t replicas : {1u, 2u, 3u}) {
      auto service = GraphService::Create(dataset.graph, ReplicaOptions(replicas));
      if (!service.ok()) {
        std::printf("replica-sweep Create(R=%u) failed: %s\n", replicas,
                    service.status().ToString().c_str());
        return 1;
      }
      (*service)->Start();
      ReplicaLoadResult load =
          SaturateLoad(**service, kReplicaRequests, /*seed_base=*/5000, false);
      const double rps = load.wall_seconds > 0
                             ? static_cast<double>(load.completed) / load.wall_seconds
                             : 0.0;
      if (replicas == 1) {
        r1_digest = load.digest;
        r1_rps = rps;
      } else if (replicas == 2) {
        r2_rps = rps;
      }
      char digest_hex[32];
      std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                    static_cast<unsigned long long>(load.digest));
      replica_table.AddRow({std::to_string(replicas), std::to_string(kReplicaRequests),
                            std::to_string(load.completed), std::to_string(load.unavailable),
                            TablePrinter::Fmt(rps, 0), digest_hex});
      bench::JsonRecord record;
      record.AddString("phase", "replica-sweep");
      record.AddInt("shards", 4);
      record.AddInt("replicas", replicas);
      record.AddInt("offered", kReplicaRequests);
      record.AddInt("completed", load.completed);
      record.AddInt("unavailable", load.unavailable);
      record.AddInt("shed", load.shed);
      record.AddNumber("throughput_rps", rps);
      record.AddString("digest", digest_hex);
      record.AddString("digest_matches_r1", load.digest == r1_digest ? "yes" : "no");
      records.push_back(std::move(record));
    }
    const bool scaling_held = r2_rps > r1_rps;
    std::printf("%s", replica_table.Render("replica sweep (read-heavy, closed-loop)").c_str());
    std::printf("read scaling: R=2 %.0f req/s vs R=1 %.0f req/s — contract %s\n\n", r2_rps,
                r1_rps, scaling_held ? "HELD" : "VIOLATED");
    if (!scaling_held) {
      return 1;
    }
  }

  // ---- replica kill: one replica of every shard dies under load -------------
  {
    auto service = GraphService::Create(dataset.graph, ReplicaOptions(2));
    if (!service.ok()) {
      std::printf("replica-kill Create failed: %s\n", service.status().ToString().c_str());
      return 1;
    }
    (*service)->Start();
    ReplicaLoadResult load = SaturateLoad(**service, kReplicaRequests, /*seed_base=*/5000, true);
    const ServiceStats stats = (*service)->stats();
    // The contract: survivors absorb everything — every request completes OK
    // (zero kUnavailable, zero drops) and the payloads are byte-identical to
    // the unkilled R=1 run of the same schedule.
    const bool contract_held = load.unavailable == 0 && load.failed_other == 0 &&
                               load.shed == 0 && load.completed == kReplicaRequests &&
                               load.digest == r1_digest;
    std::printf(
        "replica kill (4 shards x R=2, replica 0 of every shard dies mid-load): %llu ok, "
        "%llu unavailable, %llu shed, %llu failovers, %llu replica kills, digest %s R=1 — "
        "contract %s\n",
        static_cast<unsigned long long>(load.completed),
        static_cast<unsigned long long>(load.unavailable),
        static_cast<unsigned long long>(load.shed),
        static_cast<unsigned long long>(stats.failovers),
        static_cast<unsigned long long>(stats.replica_kills),
        load.digest == r1_digest ? "==" : "!=", contract_held ? "HELD" : "VIOLATED");
    bench::JsonRecord record;
    record.AddString("phase", "replica-kill");
    record.AddInt("shards", 4);
    record.AddInt("replicas", 2);
    record.AddInt("offered", kReplicaRequests);
    record.AddInt("completed", load.completed);
    record.AddInt("unavailable", load.unavailable);
    record.AddInt("shed", load.shed);
    record.AddInt("failovers", stats.failovers);
    record.AddInt("replica_kills", stats.replica_kills);
    record.AddString("digest_matches_unkilled_r1", load.digest == r1_digest ? "yes" : "no");
    record.AddString("contract", contract_held ? "held" : "violated");
    records.push_back(std::move(record));
    if (!contract_held) {
      return 1;
    }
  }

  if (json_path) {
    if (Status status = bench::WriteJsonRecords(*json_path, records); !status.ok()) {
      std::printf("json write failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (trace_path) {
    if (Status status = bench::FinishTrace(*trace_path); !status.ok()) {
      std::printf("trace write failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace dgcl

int main(int argc, char** argv) { return dgcl::Run(argc, argv); }
