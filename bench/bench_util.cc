#include "bench_util.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "telemetry/chrome_trace.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace bench {

uint32_t InverseScale(DatasetId id) {
  // Keeps the largest stand-in near a million undirected edges; see
  // EXPERIMENTS.md ("Scale substitutions").
  switch (id) {
    case DatasetId::kReddit:
      return 32;
    case DatasetId::kComOrkut:
      return 64;
    case DatasetId::kWebGoogle:
      return 16;
    case DatasetId::kWikiTalk:
      return 64;
  }
  return 16;
}

const Dataset& BenchDataset(DatasetId id) {
  static std::map<DatasetId, Dataset> cache;
  auto it = cache.find(id);
  if (it == cache.end()) {
    it = cache.emplace(id, MakeDataset(id, InverseScale(id))).first;
    std::fprintf(stderr, "[bench] generated %s stand-in: %u vertices, %llu edges\n",
                 it->second.name.c_str(), it->second.graph.num_vertices(),
                 static_cast<unsigned long long>(it->second.graph.num_edges()));
  }
  return it->second;
}

EpochOptions PaperOptions(DatasetId id, GnnModel model) {
  EpochOptions opts;
  opts.gnn = model;
  opts.num_layers = 2;
  opts.inverse_scale = InverseScale(id);
  // Compute-model calibration: effective V100 throughputs chosen so the
  // compute/communication split lands in the regime of Figure 7 (see
  // EXPERIMENTS.md for the derivation).
  opts.compute.dense_flops = 7e12;
  opts.compute.sparse_flops = 1.1e12;
  opts.compute.layer_overhead_s = 3e-4;
  opts.net.per_op_latency_s = 2e-5;
  return opts;
}

Result<std::unique_ptr<SimBundle>> MakeSimulator(DatasetId id, uint32_t gpus, GnnModel model,
                                                 bool nvlink) {
  auto bundle = std::make_unique<SimBundle>();
  bundle->topology = BuildPaperTopology(gpus, nvlink);
  EpochOptions opts = PaperOptions(id, model);
  if (gpus > 8) {
    bundle->machine_topology = BuildPaperTopology(gpus / 2, nvlink);
    opts.machine_topology = &bundle->machine_topology;
  }
  DGCL_ASSIGN_OR_RETURN(EpochSimulator sim,
                        EpochSimulator::Create(BenchDataset(id), bundle->topology, opts));
  bundle->simulator.emplace(std::move(sim));
  return bundle;
}

std::string EpochCell(const Result<EpochReport>& report) {
  if (!report.ok()) {
    return "n/a";
  }
  if (report->oom) {
    return "OOM";
  }
  return TablePrinter::Fmt(report->EpochMs(), 1);
}

std::string CommCell(const Result<EpochReport>& report) {
  if (!report.ok()) {
    return "n/a";
  }
  if (report->oom) {
    return "OOM";
  }
  return TablePrinter::Fmt(report->comm_ms, 1);
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void JsonRecord::AddString(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += JsonEscape(value);
  quoted += '"';
  fields.emplace_back(key, std::move(quoted));
}

void JsonRecord::AddNumber(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  fields.emplace_back(key, buf);
}

void JsonRecord::AddInt(const std::string& key, uint64_t value) {
  fields.emplace_back(key, std::to_string(value));
}

std::optional<std::string> ConsumeJsonFlag(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      std::string path = argv[i + 1];
      for (int j = i; j + 2 < *argc; ++j) {
        argv[j] = argv[j + 2];
      }
      *argc -= 2;
      return path;
    }
  }
  return std::nullopt;
}

std::optional<std::string> ConsumeTraceFlag(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < *argc) {
      std::string path = argv[i + 1];
      for (int j = i; j + 2 < *argc; ++j) {
        argv[j] = argv[j + 2];
      }
      *argc -= 2;
      telemetry::Telemetry::Get().SetEnabled(true);
      return path;
    }
  }
  return std::nullopt;
}

Status FinishTrace(const std::string& path) {
  telemetry::Telemetry::Get().SetEnabled(false);
  telemetry::Trace trace = telemetry::Telemetry::Get().Collect();
  DGCL_RETURN_IF_ERROR(telemetry::WriteChromeTrace(trace, path));
  std::printf("%s", telemetry::RenderTraceSummary(trace, "trace summary").c_str());
  std::printf("trace written to %s (%zu events)\n", path.c_str(), trace.events.size());
  return Status::Ok();
}

Status WriteJsonRecords(const std::string& path, const std::vector<JsonRecord>& records) {
  // Write-then-rename so readers tracking the file across bench re-runs
  // (perf dashboards, reproduce.sh consumers) never observe a truncated
  // array: the target either holds its previous contents or the complete new
  // ones. rename(2) is atomic within a filesystem, and the temp file lives
  // next to the target so the rename never crosses one.
  const std::string tmp_path = path + ".tmp";
  std::ofstream out(tmp_path, std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open " + tmp_path + " for writing");
  }
  out << "[\n";
  for (size_t r = 0; r < records.size(); ++r) {
    out << "  {";
    for (size_t f = 0; f < records[r].fields.size(); ++f) {
      out << "\"" << JsonEscape(records[r].fields[f].first)
          << "\": " << records[r].fields[f].second;
      if (f + 1 < records[r].fields.size()) {
        out << ", ";
      }
    }
    out << "}" << (r + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  out.close();
  if (!out) {
    std::remove(tmp_path.c_str());
    return Status::Internal("error writing " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("cannot rename " + tmp_path + " to " + path);
  }
  return Status::Ok();
}

void PrintHeader(const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("(simulated full-size equivalents; see EXPERIMENTS.md)\n");
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace dgcl
