// Mini-batch training path: cross-request fetch batching and the sampled
// trainer loop.
//
// Phase 1 (fetch batching): lockstep bursts of feature-fetching sample
// requests (return_features = true, a deliberately tiny cache so nearly
// every remote row goes to the wire) — emulating synchronized trainers that
// all submit a training step's batch requests at once — against the same
// service with cross-request batching off and on at two window settings.
// Every remote Transmit pays a fixed per-message envelope
// (FaultInjection::latency_micros — the stand-in for real per-message wire
// overhead, which FetchBatchOptions::header_bytes mirrors in the byte
// accounting), so coalescing shows up twice: fewer messages → fewer
// envelopes on the wire (bytes win) and fewer serialized per-connection
// waits (p50/p99 win). The wider window shows the regression direction:
// stalling longer than the burst's natural arrival spread just adds
// latency. The run ends with the batched/unbatched bytes-on-wire ratio
// (EXPERIMENTS.md records it).
//
// Phase 2 (trainer loop): MiniBatchTrainer over the serving tier on the
// community fixture, once per sampling strategy (a fresh service with
// ServiceOptions::sampler set to it) — epochs of sampled mini-batch SGD,
// reporting the full-graph loss/accuracy before and after plus wall time
// per epoch.
//
// Usage: bench_minibatch [--json out.json] [--trace out.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "service/minibatch_trainer.h"
#include "service/service.h"

namespace dgcl {
namespace {

constexpr uint32_t kNumShards = 4;
// Mini-batch traffic is bursty: `kBurstSize` concurrent trainers submit
// their batch requests in lockstep (a training step), round-robin over the
// shards, and the next step starts when the last response lands. Within a
// burst, one shard's pool fetches the same remote owners at the same
// instant — the contention cross-request batching amortizes.
constexpr uint32_t kBurstSize = 64;
constexpr uint32_t kBursts = 20;

struct Fixture {
  CsrGraph graph;
  EmbeddingMatrix features;
  std::vector<uint32_t> labels;
  uint32_t num_classes = 6;
  uint32_t feature_dim = 16;

  static Fixture Make() {
    Fixture f;
    Rng rng(97);
    const VertexId n = 1200;
    f.graph = GenerateCommunityGraph(n, f.num_classes, 12.0, 0.8, rng);
    f.features = EmbeddingMatrix::Zero(n, f.feature_dim);
    f.labels.resize(n);
    const VertexId block = n / f.num_classes;
    for (VertexId v = 0; v < n; ++v) {
      const uint32_t community = std::min<uint32_t>(v / block, f.num_classes - 1);
      f.labels[v] = community;
      for (uint32_t c = 0; c < f.feature_dim; ++c) {
        f.features.Row(v)[c] = rng.UniformFloat(-0.3f, 0.3f);
      }
      f.features.Row(v)[community] += 1.0f;
    }
    return f;
  }

  ServiceOptions Options() const {
    ServiceOptions options;
    options.num_shards = kNumShards;
    options.samplers_per_shard = 8;
    options.feature_dim = feature_dim;
    options.hidden_dim = 8;
    options.cache_capacity_rows = 64;  // tiny on purpose: fetches hit the wire
    // The per-message envelope every remote fetch pays (emulated wire). Big
    // enough that unbatched fetches queue on the serialized per-connection
    // wire under load — the contention batching exists to amortize.
    options.faults.latency_micros = 200;
    options.faults.all_transports = true;
    return options;
  }
};

struct LoadResult {
  uint64_t completed = 0;
  uint64_t shed = 0;
  std::vector<double> latencies_ms;
  double wall_seconds = 0.0;
};

LoadResult OfferLoad(GraphService& service) {
  LoadResult result;
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t burst = 0; burst < kBursts; ++burst) {
    uint64_t accepted = 0;
    for (uint32_t j = 0; j < kBurstSize; ++j) {
      const uint32_t i = burst * kBurstSize + j;
      SampleRequest request;
      request.request_id = i;
      request.shard = j % kNumShards;
      request.num_seeds = 4;
      request.sample = {2, 2, 5000 + i};
      request.return_features = true;
      if (service.Submit(std::move(request)).ok()) {
        ++accepted;
      } else {
        ++result.shed;
      }
    }
    for (uint64_t j = 0; j < accepted; ++j) {
      std::optional<SampleResponse> response = service.PopResponse(5'000'000);
      if (!response) {
        break;
      }
      if (response->status.ok()) {
        ++result.completed;
        result.latencies_ms.push_back(response->latency_seconds * 1e3);
      }
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  service.Stop();
  return result;
}

int Run(int argc, char** argv) {
  auto json_path = bench::ConsumeJsonFlag(&argc, argv);
  auto trace_path = bench::ConsumeTraceFlag(&argc, argv);
  bench::PrintHeader("Mini-batch path: cross-request fetch batching + sampled training");

  Fixture fixture = Fixture::Make();
  std::printf("community fixture: %u vertices, %llu edges, %u classes, feature dim %u\n\n",
              fixture.graph.num_vertices(),
              static_cast<unsigned long long>(fixture.graph.num_edges()), fixture.num_classes,
              fixture.feature_dim);

  std::vector<bench::JsonRecord> records;

  // ---- phase 1: batched vs unbatched remote feature fetches -----------------
  struct Config {
    const char* name;
    bool enabled;
    uint64_t window_micros;
  };
  const Config kConfigs[] = {
      {"unbatched", false, 0},
      {"batched-200us", true, 200},
      {"batched-500us", true, 500},
  };
  TablePrinter table({"Config", "Offered", "Shed", "p50 ms", "p99 ms", "Messages", "Rows",
                      "KB wire", "Coalesced", "req/s"});
  uint64_t unbatched_bytes = 0;
  double batched_bytes_factor = 1.0;
  for (const Config& config : kConfigs) {
    ServiceOptions options = fixture.Options();
    options.fetch.enabled = config.enabled;
    // The byte-accounting mirror of the emulated 200us envelope: what a real
    // per-message header + descriptor exchange costs on the wire.
    options.fetch.header_bytes = 512;
    if (config.enabled) {
      options.fetch.window_micros = config.window_micros;
    }
    auto service = GraphService::Create(fixture.graph, options, &fixture.features);
    if (!service.ok()) {
      std::printf("Create(%s) failed: %s\n", config.name, service.status().ToString().c_str());
      return 1;
    }
    (*service)->Start();
    LoadResult load = OfferLoad(**service);
    const ServiceStats stats = (*service)->stats();
    const double p50 = Percentile(load.latencies_ms, 0.50);
    const double p99 = Percentile(load.latencies_ms, 0.99);
    const double rps = load.wall_seconds > 0
                           ? static_cast<double>(load.completed) / load.wall_seconds
                           : 0.0;
    if (!config.enabled) {
      unbatched_bytes = stats.fetch_bytes;
    } else if (unbatched_bytes > 0 && config.window_micros == 200) {
      batched_bytes_factor =
          static_cast<double>(stats.fetch_bytes) / static_cast<double>(unbatched_bytes);
    }
    table.AddRow({config.name, std::to_string(kBursts * kBurstSize), std::to_string(load.shed),
                  TablePrinter::Fmt(p50, 3), TablePrinter::Fmt(p99, 3),
                  std::to_string(stats.fetch_messages), std::to_string(stats.fetch_rows),
                  TablePrinter::Fmt(stats.fetch_bytes / 1024.0, 1),
                  std::to_string(stats.fetch_coalesced), TablePrinter::Fmt(rps, 0)});
    bench::JsonRecord record;
    record.AddString("phase", "fetch");
    record.AddString("config", config.name);
    record.AddInt("window_micros", config.window_micros);
    record.AddInt("offered", kBursts * kBurstSize);
    record.AddInt("completed", load.completed);
    record.AddInt("shed", load.shed);
    record.AddNumber("p50_ms", p50);
    record.AddNumber("p99_ms", p99);
    record.AddInt("fetch_messages", stats.fetch_messages);
    record.AddInt("fetch_rows", stats.fetch_rows);
    record.AddInt("fetch_bytes", stats.fetch_bytes);
    record.AddInt("fetch_coalesced", stats.fetch_coalesced);
    record.AddNumber("throughput_rps", rps);
    records.push_back(std::move(record));
  }
  std::printf("%s", table.Render("remote feature fetches, batched vs unbatched").c_str());
  std::printf("bytes-on-wire factor (batched-200us / unbatched): %.4f\n\n",
              batched_bytes_factor);
  {
    bench::JsonRecord record;
    record.AddString("phase", "fetch-summary");
    record.AddNumber("bytes_on_wire_factor", batched_bytes_factor);
    records.push_back(std::move(record));
  }

  // ---- phase 2: sampled mini-batch training, one run per strategy -----------
  constexpr uint32_t kEpochs = 15;
  TablePrinter train_table({"Strategy", "Epochs", "Loss before", "Loss after", "Accuracy",
                            "ms/epoch"});
  for (const std::string& strategy : SamplerNames()) {
    ServiceOptions options = fixture.Options();
    options.sampler = strategy;
    options.fetch.enabled = true;
    options.fetch.window_micros = 200;
    auto service = GraphService::Create(fixture.graph, options, &fixture.features);
    if (!service.ok()) {
      std::printf("train Create failed: %s\n", service.status().ToString().c_str());
      return 1;
    }
    MiniBatchTrainerOptions train_options;
    train_options.trainer.hidden_dim = 16;
    train_options.trainer.learning_rate = 0.3f;
    train_options.batch_seeds = 48;
    train_options.batches_per_epoch = 8;
    train_options.sample = {2, 6, 0x5eed};
    auto trainer = MiniBatchTrainer::Create(service->get(), fixture.labels,
                                            fixture.num_classes, train_options);
    if (!trainer.ok()) {
      std::printf("trainer Create(%s) failed: %s\n", strategy.c_str(),
                  trainer.status().ToString().c_str());
      return 1;
    }
    auto before = (*trainer)->Evaluate();
    if (!before.ok()) {
      std::printf("Evaluate failed: %s\n", before.status().ToString().c_str());
      return 1;
    }
    const auto start = std::chrono::steady_clock::now();
    for (uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
      auto result = (*trainer)->TrainEpoch();
      if (!result.ok()) {
        std::printf("epoch %u (%s) failed: %s\n", epoch, strategy.c_str(),
                    result.status().ToString().c_str());
        return 1;
      }
    }
    const double ms_per_epoch =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() * 1e3 /
        kEpochs;
    auto after = (*trainer)->Evaluate();
    if (!after.ok()) {
      std::printf("Evaluate failed: %s\n", after.status().ToString().c_str());
      return 1;
    }
    train_table.AddRow({strategy, std::to_string(kEpochs), TablePrinter::Fmt(before->loss, 4),
                        TablePrinter::Fmt(after->loss, 4),
                        TablePrinter::Fmt(after->accuracy, 3),
                        TablePrinter::Fmt(ms_per_epoch, 2)});
    bench::JsonRecord record;
    record.AddString("phase", "train");
    record.AddString("strategy", strategy);
    record.AddInt("epochs", kEpochs);
    record.AddNumber("loss_before", before->loss);
    record.AddNumber("loss_after", after->loss);
    record.AddNumber("accuracy", after->accuracy);
    record.AddNumber("ms_per_epoch", ms_per_epoch);
    records.push_back(std::move(record));
  }
  std::printf("%s", train_table.Render("sampled mini-batch training by strategy").c_str());

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
