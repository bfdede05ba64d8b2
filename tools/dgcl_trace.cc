// dgcl_trace — post-processing for Chrome-trace files written by the benches
// (`--trace <path>`) or by telemetry::WriteChromeTrace.
//
// Usage:
//   dgcl_trace summarize <trace.json>...         per-(category,name) table
//   dgcl_trace summarize --waits <trace.json>... per-peer wait-time histogram
//   dgcl_trace summarize --recovery <trace.json>... per-phase recovery MTTR
//   dgcl_trace summarize --serving <trace.json>...  per-shard serving latency
//   dgcl_trace merge -o <out.json> <in.json>...  merge traces into one file
//   dgcl_trace convert <in.json> <out.json>      re-emit in canonical form
//
// All subcommands round-trip through the importer, so they double as a
// validation pass: a file that summarizes cleanly will load in Perfetto.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/percentile.h"
#include "common/table_printer.h"

#include "telemetry/chrome_trace.h"
#include "telemetry/cost_audit.h"

using namespace dgcl;

namespace {

// Only a usage error prints this, so it goes to stderr.
void PrintUsage() {
  std::fputs(
      "usage: dgcl_trace summarize [--waits|--recovery|--serving] <trace.json>...\n"
      "       dgcl_trace merge -o <out.json> <in.json>...\n"
      "       dgcl_trace convert <in.json> <out.json>\n",
      stderr);
}

Result<telemetry::Trace> LoadMerged(const std::vector<std::string>& paths) {
  std::vector<telemetry::Trace> traces;
  for (const std::string& path : paths) {
    Result<telemetry::Trace> trace = telemetry::ReadChromeTrace(path);
    if (!trace.ok()) {
      return Status(trace.status().code(), path + ": " + std::string(trace.status().message()));
    }
    traces.push_back(std::move(trace).value());
  }
  return telemetry::MergeTraces(traces);
}

// Per-peer wait-time histogram over the engine's coordination-wait spans
// (names containing "wait": fwd.wait.ready, fwd.wait.done, bwd.wait.ready,
// bwd.wait.done), grouped by (wait name, peer arg). Buckets are decades of
// wait duration — the shape separates healthy spin-throughs (<10us) from
// stalls behind a straggler or injected NIC latency.
int SummarizeWaits(const telemetry::Trace& trace) {
  struct Bucketed {
    uint64_t count = 0;
    double total_seconds = 0.0;
    double max_seconds = 0.0;
    uint64_t buckets[5] = {0, 0, 0, 0, 0};  // <10us, <100us, <1ms, <10ms, >=10ms
  };
  std::map<std::pair<std::string, uint64_t>, Bucketed> waits;
  for (const telemetry::TraceEvent& ev : trace.events) {
    if (ev.kind != telemetry::TraceEventKind::kSpan ||
        ev.name.find("wait") == std::string::npos) {
      continue;
    }
    uint64_t peer = ~uint64_t{0};
    for (size_t i = 0; i < ev.arg_key.size(); ++i) {
      if (ev.arg_key[i] == "peer") {
        peer = ev.arg_val[i];
        break;
      }
    }
    Bucketed& b = waits[{ev.name, peer}];
    ++b.count;
    const double seconds = ev.dur_ns / 1e9;
    b.total_seconds += seconds;
    b.max_seconds = std::max(b.max_seconds, seconds);
    const size_t bucket = ev.dur_ns < 10'000        ? 0
                          : ev.dur_ns < 100'000     ? 1
                          : ev.dur_ns < 1'000'000   ? 2
                          : ev.dur_ns < 10'000'000  ? 3
                                                    : 4;
    ++b.buckets[bucket];
  }
  if (waits.empty()) {
    std::printf("no wait spans in trace (record with telemetry enabled on the engine)\n");
    return 0;
  }
  TablePrinter table({"Wait", "Peer", "Count", "Total ms", "Max ms", "<10us", "<100us", "<1ms",
                      "<10ms", ">=10ms"});
  for (const auto& [key, b] : waits) {
    table.AddRow({key.first, key.second == ~uint64_t{0} ? "-" : TablePrinter::FmtInt(key.second),
                  TablePrinter::FmtInt(b.count), TablePrinter::Fmt(b.total_seconds * 1e3, 3),
                  TablePrinter::Fmt(b.max_seconds * 1e3, 3), TablePrinter::FmtInt(b.buckets[0]),
                  TablePrinter::FmtInt(b.buckets[1]), TablePrinter::FmtInt(b.buckets[2]),
                  TablePrinter::FmtInt(b.buckets[3]), TablePrinter::FmtInt(b.buckets[4])});
  }
  std::printf("%s", table.Render("coordination waits by (wait, peer)").c_str());
  return 0;
}

// Per-phase MTTR breakdown over the "recovery" span category (emitted by
// DgclContext::Recover / ElasticTrainingSession). The MTTR line sums the
// recovery work proper — detect, membership, repartition, replan, restore —
// matching RecoveryReport::MttrSeconds(); recovery.protocol (the envelope
// around membership..replan) and recovery.resume (the retried epoch) are
// shown but not double-counted into it.
int SummarizeRecovery(const telemetry::Trace& trace) {
  struct Phase {
    uint64_t count = 0;
    double total_seconds = 0.0;
    double max_seconds = 0.0;
  };
  std::map<std::string, Phase> phases;
  for (const telemetry::TraceEvent& ev : trace.events) {
    if (ev.kind != telemetry::TraceEventKind::kSpan || ev.category != "recovery") {
      continue;
    }
    Phase& p = phases[ev.name];
    ++p.count;
    const double seconds = ev.dur_ns / 1e9;
    p.total_seconds += seconds;
    p.max_seconds = std::max(p.max_seconds, seconds);
  }
  if (phases.empty()) {
    std::printf("no recovery spans in trace (run an ElasticTrainingSession with telemetry enabled)\n");
    return 0;
  }
  TablePrinter table({"Phase", "Count", "Total ms", "Mean ms", "Max ms"});
  double mttr_seconds = 0.0;
  for (const auto& [name, p] : phases) {
    table.AddRow({name, TablePrinter::FmtInt(p.count), TablePrinter::Fmt(p.total_seconds * 1e3, 3),
                  TablePrinter::Fmt(p.total_seconds / p.count * 1e3, 3),
                  TablePrinter::Fmt(p.max_seconds * 1e3, 3)});
    if (name == "recovery.detect" || name == "recovery.membership" ||
        name == "recovery.repartition" || name == "recovery.replan" ||
        name == "recovery.restore") {
      mttr_seconds += p.total_seconds;
    }
  }
  std::printf("%s", table.Render("recovery phases").c_str());
  std::printf("MTTR (detect+membership+repartition+replan+restore): %.3f ms\n",
              mttr_seconds * 1e3);
  return 0;
}

// Per-shard latency table over the serving tier's "serve.request" spans
// (GraphService::Process), using the same nearest-rank percentile definition
// as bench_serving (common/percentile.h) so the two reports are comparable.
// Follows with a phase breakdown (serve.queue / serve.sample / serve.features
// / serve.infer) and the FeatureCache's hit/miss/evict counter totals.
int SummarizeServing(const telemetry::Trace& trace) {
  struct ShardStats {
    std::vector<double> latency_ms;
    uint64_t ok = 0;
    uint64_t failed = 0;
  };
  struct Phase {
    uint64_t count = 0;
    double total_seconds = 0.0;
    double max_seconds = 0.0;
  };
  struct ReplicaStats {
    uint64_t ok = 0;
    uint64_t failed = 0;
  };
  std::map<uint64_t, ShardStats> shards;
  // (shard, replica) -> routed counts; only filled when spans carry the
  // "replica" arg (replica-aware service).
  std::map<std::pair<uint64_t, uint64_t>, ReplicaStats> replicas;
  std::map<std::string, Phase> phases;
  std::map<std::string, double> counters;
  for (const telemetry::TraceEvent& ev : trace.events) {
    if (ev.category != "service") {
      continue;
    }
    if (ev.kind == telemetry::TraceEventKind::kCounter) {
      counters[ev.name] += ev.value;
      continue;
    }
    if (ev.kind != telemetry::TraceEventKind::kSpan) {
      continue;
    }
    if (ev.name == "serve.request") {
      uint64_t shard = ~uint64_t{0};
      uint64_t replica = ~uint64_t{0};
      bool has_replica = false;
      uint64_t ok = 1;
      for (size_t i = 0; i < ev.arg_key.size(); ++i) {
        if (ev.arg_key[i] == "shard") {
          shard = ev.arg_val[i];
        } else if (ev.arg_key[i] == "replica") {
          replica = ev.arg_val[i];
          has_replica = true;
        } else if (ev.arg_key[i] == "ok") {
          ok = ev.arg_val[i];
        }
      }
      ShardStats& s = shards[shard];
      s.latency_ms.push_back(ev.dur_ns / 1e6);
      ++(ok != 0 ? s.ok : s.failed);
      if (has_replica) {
        ReplicaStats& r = replicas[{shard, replica}];
        ++(ok != 0 ? r.ok : r.failed);
      }
    } else {
      Phase& p = phases[ev.name];
      ++p.count;
      const double seconds = ev.dur_ns / 1e9;
      p.total_seconds += seconds;
      p.max_seconds = std::max(p.max_seconds, seconds);
    }
  }
  if (shards.empty()) {
    std::printf("no serve.request spans in trace (run bench_serving --trace, or serve "
                "with telemetry enabled)\n");
    return 0;
  }
  TablePrinter table(
      {"Shard", "Requests", "OK", "Failed", "p50 ms", "p99 ms", "p999 ms", "Max ms"});
  std::vector<double> all_ms;
  uint64_t all_ok = 0;
  uint64_t all_failed = 0;
  for (auto& [shard, s] : shards) {
    all_ms.insert(all_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
    all_ok += s.ok;
    all_failed += s.failed;
    std::sort(s.latency_ms.begin(), s.latency_ms.end());
    table.AddRow({shard == ~uint64_t{0} ? "-" : TablePrinter::FmtInt(shard),
                  TablePrinter::FmtInt(s.latency_ms.size()), TablePrinter::FmtInt(s.ok),
                  TablePrinter::FmtInt(s.failed),
                  TablePrinter::Fmt(PercentileSorted(s.latency_ms, 0.50), 3),
                  TablePrinter::Fmt(PercentileSorted(s.latency_ms, 0.99), 3),
                  TablePrinter::Fmt(PercentileSorted(s.latency_ms, 0.999), 3),
                  TablePrinter::Fmt(s.latency_ms.back(), 3)});
  }
  std::sort(all_ms.begin(), all_ms.end());
  table.AddRow({"all", TablePrinter::FmtInt(all_ms.size()), TablePrinter::FmtInt(all_ok),
                TablePrinter::FmtInt(all_failed),
                TablePrinter::Fmt(PercentileSorted(all_ms, 0.50), 3),
                TablePrinter::Fmt(PercentileSorted(all_ms, 0.99), 3),
                TablePrinter::Fmt(PercentileSorted(all_ms, 0.999), 3),
                TablePrinter::Fmt(all_ms.back(), 3)});
  std::printf("%s", table.Render("serving latency by shard (serve.request)").c_str());

  // Per-replica routing: where each shard's requests actually landed. The
  // 0xFFFFFFFF sentinel (kInvalidId) marks requests no replica served — the
  // sync path answering for an exhausted shard.
  if (!replicas.empty()) {
    TablePrinter replica_table({"Shard", "Replica", "Requests", "OK", "Failed"});
    for (const auto& [key, r] : replicas) {
      const bool unserved = key.second == 0xFFFFFFFFull;
      replica_table.AddRow({TablePrinter::FmtInt(key.first),
                            unserved ? "-" : TablePrinter::FmtInt(key.second),
                            TablePrinter::FmtInt(r.ok + r.failed), TablePrinter::FmtInt(r.ok),
                            TablePrinter::FmtInt(r.failed)});
    }
    std::printf("%s", replica_table.Render("replica routing (serve.request)").c_str());
  }

  if (!phases.empty()) {
    TablePrinter phase_table({"Phase", "Count", "Total ms", "Mean ms", "Max ms"});
    for (const auto& [name, p] : phases) {
      phase_table.AddRow(
          {name, TablePrinter::FmtInt(p.count), TablePrinter::Fmt(p.total_seconds * 1e3, 3),
           TablePrinter::Fmt(p.total_seconds / p.count * 1e3, 3),
           TablePrinter::Fmt(p.max_seconds * 1e3, 3)});
    }
    std::printf("%s", phase_table.Render("serving phases").c_str());

    // The sample phase is recorded per strategy (serve.sample.<name>, the
    // ServiceOptions::sampler name) — break it out so strategy cost is
    // comparable at a glance.
    TablePrinter sample_table({"Sampler", "Samples", "Total ms", "Mean ms", "Max ms"});
    bool any_strategy = false;
    const std::string prefix = "serve.sample.";
    for (const auto& [name, p] : phases) {
      if (name.rfind(prefix, 0) != 0) {
        continue;
      }
      any_strategy = true;
      sample_table.AddRow({name.substr(prefix.size()), TablePrinter::FmtInt(p.count),
                           TablePrinter::Fmt(p.total_seconds * 1e3, 3),
                           TablePrinter::Fmt(p.total_seconds / p.count * 1e3, 3),
                           TablePrinter::Fmt(p.max_seconds * 1e3, 3)});
    }
    if (any_strategy) {
      std::printf("%s", sample_table.Render("sample phase by strategy").c_str());
    }
  }

  const double hits = counters["cache.hit"];
  const double misses = counters["cache.miss"];
  if (hits + misses > 0.0) {
    std::printf("feature cache: %.0f hits, %.0f misses, %.0f evictions (hit rate %.3f)\n",
                hits, misses, counters["cache.evict"], hits / (hits + misses));
  }
  const double flushes = counters["fetch.batch.flush"];
  if (flushes > 0.0) {
    const double rows = counters["fetch.batch.rows"];
    std::printf("batched fetches: %.0f transmits carrying %.0f rows (%.1f rows/transmit)\n",
                flushes, rows, rows / flushes);
  }
  for (const char* name : {"request.shed", "fetch.unplanned", "shard.killed", "replica.killed"}) {
    const auto it = counters.find(name);
    if (it != counters.end() && it->second > 0.0) {
      std::printf("%s: %.0f\n", name, it->second);
    }
  }
  return 0;
}

// Planner auto-selection scorecard: the "planner" category's
// "auto.<strategy>.cost_us" / "auto.<strategy>.sim_us" counters recorded per
// candidate by PlanWithStrategy, plus the "auto.selected.<strategy>" marker.
// Lets a trace answer *why* a strategy was committed after the fact.
void SummarizeAutoSelect(const telemetry::Trace& trace) {
  struct Scores {
    double cost_us = 0.0;
    double sim_us = 0.0;
    uint64_t rounds = 0;
    bool selected = false;
  };
  std::map<std::string, Scores> by_strategy;  // latest sample wins
  for (const telemetry::TraceEvent& ev : trace.events) {
    if (ev.kind != telemetry::TraceEventKind::kCounter || ev.category != "planner" ||
        ev.name.rfind("auto.", 0) != 0) {
      continue;
    }
    const std::string rest = ev.name.substr(5);
    if (rest.rfind("selected.", 0) == 0) {
      by_strategy[rest.substr(9)].selected = true;
      continue;
    }
    const size_t dot = rest.rfind('.');
    if (dot == std::string::npos) {
      continue;
    }
    const std::string strategy = rest.substr(0, dot);
    const std::string metric = rest.substr(dot + 1);
    Scores& s = by_strategy[strategy];
    if (metric == "cost_us") {
      s.cost_us = ev.value;
      ++s.rounds;
    } else if (metric == "sim_us") {
      s.sim_us = ev.value;
    }
  }
  if (by_strategy.empty()) {
    return;  // no auto-selection in this trace
  }
  TablePrinter table({"Strategy", "Cost-model ms", "Simulated ms", "Samples", "Selected"});
  for (const auto& [name, s] : by_strategy) {
    table.AddRow({name, TablePrinter::Fmt(s.cost_us / 1e3, 3), TablePrinter::Fmt(s.sim_us / 1e3, 3),
                  TablePrinter::FmtInt(s.rounds), s.selected ? "*" : ""});
  }
  std::printf("%s", table.Render("planner auto-select candidates (last sample)").c_str());
}

int Summarize(const std::vector<std::string>& paths, bool waits, bool recovery, bool serving) {
  Result<telemetry::Trace> loaded = LoadMerged(paths);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const telemetry::Trace& merged = *loaded;
  if (waits) {
    return SummarizeWaits(merged);
  }
  if (recovery) {
    return SummarizeRecovery(merged);
  }
  if (serving) {
    return SummarizeServing(merged);
  }
  std::string title = paths.size() == 1 ? paths[0] : std::to_string(paths.size()) + " traces";
  std::printf("%s", telemetry::RenderTraceSummary(merged, title).c_str());
  std::printf("%zu events total\n", merged.events.size());
  SummarizeAutoSelect(merged);

  // When the trace carries per-stage allgather spans, also report observed
  // stage wall times (the CostAudit's observation side).
  const std::vector<double> fwd =
      telemetry::ObservedStageSecondsFromTrace(merged, "fwd.stage", "stage");
  for (size_t k = 0; k < fwd.size(); ++k) {
    std::printf("observed fwd stage %zu: %.6f ms\n", k, fwd[k] * 1e3);
  }
  return 0;
}

int Merge(const std::string& out_path, const std::vector<std::string>& paths) {
  Result<telemetry::Trace> loaded = LoadMerged(paths);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const telemetry::Trace& merged = *loaded;
  Status status = telemetry::WriteChromeTrace(merged, out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu events from %zu traces)\n", out_path.c_str(),
              merged.events.size(), paths.size());
  return 0;
}

int Convert(const std::string& in_path, const std::string& out_path) {
  Result<telemetry::Trace> trace = telemetry::ReadChromeTrace(in_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(), trace.status().ToString().c_str());
    return 1;
  }
  Status status = telemetry::WriteChromeTrace(*trace, out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu events)\n", out_path.c_str(), trace->events.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "summarize" && argc >= 3) {
    bool waits = false;
    bool recovery = false;
    bool serving = false;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--waits") == 0) {
        waits = true;
      } else if (std::strcmp(argv[i], "--recovery") == 0) {
        recovery = true;
      } else if (std::strcmp(argv[i], "--serving") == 0) {
        serving = true;
      } else {
        paths.emplace_back(argv[i]);
      }
    }
    if (paths.empty()) {
      PrintUsage();
      return 2;
    }
    return Summarize(paths, waits, recovery, serving);
  }
  if (cmd == "merge") {
    std::string out_path;
    std::vector<std::string> inputs;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
        out_path = argv[++i];
      } else {
        inputs.emplace_back(argv[i]);
      }
    }
    if (out_path.empty() || inputs.empty()) {
      PrintUsage();
      return 2;
    }
    return Merge(out_path, inputs);
  }
  if (cmd == "convert" && argc == 4) {
    return Convert(argv[2], argv[3]);
  }
  PrintUsage();
  return 2;
}
