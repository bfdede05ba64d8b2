// serve-reddit-4shard: GraphService on the Reddit stand-in
// (MakeDataset(kReddit, 128, seed): 2,048 vertices, ~514 k edges, dense),
// 4 shards x 1 sampler x 1 replica, so 4 workers for 4 cores. LRU feature
// cache of 256 rows; each request has a home shard drawn from the seed, 16
// seeds and the uniform sampler, and 1 in 8 runs inference. Closed loop: the
// main thread keeps one request per worker in flight, one drain thread
// collects responses. op = one request, timed from Submit to PopResponse.
// set-up = Create + Start (median of 10).
//
// A sample of responses (2 in 32, with feature rows returned) is replayed
// through the synchronous Serve() and must match byte for byte.

#include <malloc.h>

#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "graph/generators.h"
#include "graph/khop.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dgcl::GraphService;
using dgcl::SampleRequest;
using dgcl::SampleResponse;
using dgcl::Status;

constexpr uint32_t kShards = 4;
// One request in flight per worker. Twice that measured mostly the queue
// (p50 = window / throughput) and spread about twice as much run to run.
constexpr uint32_t kWindow = kShards;
constexpr int kSetupReps = 10;
constexpr size_t kMaxReplays = 128;
// Per thread ring. Every cache lookup and eviction is a counter event, so
// the workers' rings wrap: the serve.* span means come from the last
// requests of each worker, and trace.dropped_events says how much was lost.
constexpr size_t kTraceRing = 1 << 17;

dgcl::ServiceOptions MakeOptions(uint64_t seed) {
  dgcl::ServiceOptions options;
  options.num_shards = kShards;
  options.samplers_per_shard = 1;
  options.replication.replicas = 1;
  options.cache_capacity_rows = 256;
  options.cache_policy = "lru";
  options.sampler = "uniform";
  options.feature_seed = seed;
  return options;
}

bool Checked(uint64_t id) { return id % 32 == 0 || id % 32 == 4; }

SampleRequest MakeRequest(uint64_t id, uint64_t seed) {
  SampleRequest request;
  request.request_id = id;
  // Home shard and inference drawn per request: a round-robin shard order
  // locks the closed loop into one of two latency modes per run.
  const uint64_t draw = dgcl::MixSeed(seed, id, 0);
  request.shard = static_cast<uint32_t>(draw % kShards);
  request.num_seeds = 16;
  request.sample.seed = seed * 1'000'003 + id;
  request.run_inference = (draw / kShards) % 8 == 0;
  request.return_features = Checked(id);
  return request;
}

struct LoadResult {
  std::vector<double> latency_ms;  // OK responses
  std::vector<double> service_ms;  // SampleResponse::latency_seconds
  std::vector<double> queue_ms;    // SampleResponse::queue_seconds
  std::vector<SampleResponse> kept;  // the first kMaxReplays checked ones
  std::vector<std::string> errors;  // failed requests, reported after the loop
  uint64_t submitted = 0;
  uint64_t completed = 0;
  double wall_seconds = 0.0;
};

// Closed loop for `seconds`; stops the service before returning.
void ClosedLoop(GraphService& service, double seconds, uint64_t seed, Report& report,
                LoadResult& out) {
  std::mutex mutex;
  std::condition_variable cv;
  std::map<uint64_t, double> submitted_at;  // in flight, guarded by mutex
  bool generator_done = false;              // guarded by mutex
  double last_response = 0.0;               // guarded by mutex

  std::thread drainer([&] {
    while (true) {
      std::optional<SampleResponse> response = service.PopResponse(50'000);
      const double now = NowSeconds();
      if (!response) {
        std::lock_guard<std::mutex> lock(mutex);
        if (generator_done && submitted_at.empty()) {
          return;
        }
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = submitted_at.find(response->request_id);
        if (it == submitted_at.end()) {
          out.errors.push_back("response to unknown request " +
                               std::to_string(response->request_id));
          continue;
        }
        if (response->status.ok()) {
          out.latency_ms.push_back((now - it->second) * 1e3);
          out.service_ms.push_back(response->latency_seconds * 1e3);
          out.queue_ms.push_back(response->queue_seconds * 1e3);
          ++out.completed;
        } else {
          out.errors.push_back("request " + std::to_string(response->request_id) + ": " +
                               response->status.ToString());
        }
        submitted_at.erase(it);
        last_response = now;
      }
      cv.notify_all();
      if (response->status.ok() && Checked(response->request_id) &&
          out.kept.size() < kMaxReplays) {
        out.kept.push_back(std::move(*response));
      }
    }
  });

  const double start = NowSeconds();
  for (uint64_t id = 0; NowSeconds() - start < seconds; ++id) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return submitted_at.size() < kWindow; });
      submitted_at[id] = NowSeconds();
    }
    ++out.submitted;
    report.Attempt();
    const Status status = service.Submit(MakeRequest(id, seed));
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mutex);
      out.errors.push_back("Submit " + std::to_string(id) + ": " + status.ToString());
      submitted_at.erase(id);
    }
  }
  {
    // Bounded: a lost response fails the run instead of hanging it.
    std::unique_lock<std::mutex> lock(mutex);
    generator_done = true;
    if (!cv.wait_for(lock, std::chrono::seconds(10), [&] { return submitted_at.empty(); })) {
      for (const auto& [id, at] : submitted_at) {
        out.errors.push_back("request " + std::to_string(id) + " timed out");
      }
      submitted_at.clear();
    }
    out.wall_seconds = last_response - start;
  }
  drainer.join();
  service.Stop();
  for (const std::string& error : out.errors) {
    report.Fail(error);
  }
}

// Replays the kept responses' requests through Serve() and compares.
void ReplayCheck(GraphService& service, const LoadResult& load, uint64_t seed, Report& report) {
  for (const SampleResponse& served : load.kept) {
    report.Attempt();
    const std::string error =
        CompareResponses(service.Serve(MakeRequest(served.request_id, seed)), served);
    if (!error.empty()) {
      report.Fail(error);
    }
  }
  if (load.kept.empty()) {
    report.Fail("no response was kept for the replay check");
  }
  std::printf("replay check: %zu responses replayed through Serve()\n", load.kept.size());
}

struct StartedService {
  std::unique_ptr<GraphService> service;
  double seconds = 0.0;
};

dgcl::Result<StartedService> CreateAndStart(const dgcl::CsrGraph& graph, uint64_t seed) {
  StartedService s;
  const double t0 = NowSeconds();
  {
    Span span("bench", "setup");
    DGCL_ASSIGN_OR_RETURN(s.service, GraphService::Create(graph, MakeOptions(seed)));
    s.service->Start();
  }
  s.seconds = NowSeconds() - t0;
  return s;
}

void PrintLoad(const char* what, const LoadResult& load) {
  std::printf("%s: %llu submitted, %llu ok in %.3f s; p50 %.3f ms, p90 %.3f ms, p99 %.3f ms "
              "(%zu samples); inside the service p50 %.3f ms, queue p50 %.3f ms\n",
              what, static_cast<unsigned long long>(load.submitted),
              static_cast<unsigned long long>(load.completed), load.wall_seconds,
              Pct(load.latency_ms, 0.5), Pct(load.latency_ms, 0.9), Pct(load.latency_ms, 0.99),
              load.latency_ms.size(), Pct(load.service_ms, 0.5), Pct(load.queue_ms, 0.5));
}

// A span's total or self time per occurrence, in ms (0 when absent).
double PerSpanMs(const SpanSummary& s, const std::string& name, double SpanTotals::*field) {
  auto it = s.find(name);
  return it == s.end() || it->second.count == 0 ? 0.0 : it->second.*field / it->second.count;
}

}  // namespace

Status RunServe(const Args& args, Report& report, SpanLog& spans) {
  // Generated from the seed: relabeling one fixed graph instead moved how
  // evenly the partition spreads load over the 4 shards, and with it p50.
  const dgcl::Dataset dataset = dgcl::MakeDataset(dgcl::DatasetId::kReddit, 128, args.seed);
  const dgcl::CsrGraph& graph = dataset.graph;
  std::printf("graph %s: %u vertices, %llu edges (seed %llu)\n", dataset.name.c_str(),
              graph.num_vertices(), static_cast<unsigned long long>(graph.num_edges()),
              static_cast<unsigned long long>(args.seed));

  if (!args.trace) {
    std::vector<double> setup_s;
    StartedService started;
    for (int r = 0; r < kSetupReps; ++r) {
      started.service.reset();  // one service alive at a time
      malloc_trim(0);
      DGCL_ASSIGN_OR_RETURN(started, CreateAndStart(graph, args.seed));
      setup_s.push_back(started.seconds);
    }
    LoadResult load;
    ClosedLoop(*started.service, args.seconds, args.seed, report, load);
    PrintLoad("closed loop", load);
    report.Set("peak_rss_mb", PeakRssMb());
    ReplayCheck(*started.service, load, args.seed, report);
    report.Set("setup_s", Pct(setup_s, 0.5));
    report.Set("op_ms_p50", Pct(load.latency_ms, 0.5));
    return Status::Ok();
  }

  // Traced run: an untraced loop first (queueing and tail latency are taken
  // from it, as tracing slows the workers), then the same load traced.
  const double part = args.seconds / 3.0;
  LoadResult untraced;
  {
    DGCL_ASSIGN_OR_RETURN(StartedService started, CreateAndStart(graph, args.seed));
    ClosedLoop(*started.service, part, args.seed, report, untraced);
    PrintLoad("untraced loop", untraced);
    ReplayCheck(*started.service, untraced, args.seed, report);
  }
  spans.Start(kTraceRing);
  DGCL_ASSIGN_OR_RETURN(StartedService started, CreateAndStart(graph, args.seed));
  LoadResult traced;
  ClosedLoop(*started.service, part, args.seed, report, traced);
  const SpanSummary s = spans.Stop();
  PrintLoad("traced loop", traced);

  const double requests = static_cast<double>(traced.completed);
  report.Set("service.queue_ms_p50", Pct(untraced.queue_ms, 0.5));
  report.Set("service.request_ms_p99", Pct(untraced.latency_ms, 0.99));
  report.Set("service.rps", static_cast<double>(untraced.completed) / untraced.wall_seconds);
  report.Set("service.sample_ms", PerSpanMs(s, "serve.sample.uniform", &SpanTotals::total_ms));
  report.Set("service.features_ms", PerSpanMs(s, "serve.features", &SpanTotals::total_ms));
  report.Set("service.infer_ms", PerSpanMs(s, "serve.infer", &SpanTotals::total_ms));
  report.Set("service.request.self_ms", PerSpanMs(s, "serve.request", &SpanTotals::self_ms));
  const dgcl::FeatureCache::Stats cache = started.service->cache().stats();
  const dgcl::ServiceStats stats = started.service->stats();
  report.Set("service.cache.hit_rate", cache.HitRate());
  report.Set("service.cache.lookups", static_cast<double>(cache.hits + cache.misses));
  report.Set("service.cache.evictions", static_cast<double>(cache.evictions));
  report.Set("service.fetch.messages", static_cast<double>(stats.fetch_messages) / requests);
  report.Set("service.fetch.bytes", static_cast<double>(stats.fetch_bytes) / requests);
  report.Set("service.fetch.rows_per_message",
             stats.fetch_messages == 0 ? 0.0
                                       : static_cast<double>(stats.fetch_rows) /
                                             static_cast<double>(stats.fetch_messages));
  std::printf("cache: %llu hits of %llu lookups, %llu evictions\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.hits + cache.misses),
              static_cast<unsigned long long>(cache.evictions));
  ReplayCheck(*started.service, traced, args.seed, report);
  ReportRooflines(args.seed, report);

  const double traced_p50 = Pct(traced.latency_ms, 0.5);
  report.Set("trace.setup_s", started.seconds);
  report.Set("trace.op_ms_p50", traced_p50);
  report.Set("trace.overhead_ms", traced_p50 - Pct(untraced.latency_ms, 0.5));
  for (const char* layer : {"partition.", "comm.", "planner.", "setup.", "runtime.", "gnn."}) {
    ZeroUnused(report, layer);
  }
  return Status::Ok();
}

}  // namespace perfbench
