// Figure 11: the memory used for the decentralized-coordination send/receive
// tables as a fraction (per mille) of normal training memory — the paper
// reports < 2e-3 everywhere.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "sim/memory_model.h"

namespace dgcl {
namespace {

void RunGpuCount(uint32_t gpus) {
  TablePrinter table({"Dataset", "table bytes/GPU", "training bytes/GPU", "ratio (permille)"});
  for (DatasetId id : {DatasetId::kReddit, DatasetId::kComOrkut, DatasetId::kWebGoogle,
                       DatasetId::kWikiTalk}) {
    auto bundle = bench::MakeSimulator(id, gpus, GnnModel::kGcn);
    if (!bundle.ok()) {
      continue;
    }
    auto report = (*bundle)->sim().Simulate(Method::kDgcl);
    if (!report.ok() || report->oom) {
      continue;
    }
    const Dataset& ds = bench::BenchDataset(id);
    const CommRelation& rel = (*bundle)->sim().relation();
    // Peak per-GPU training footprint (full-size equivalent).
    double max_training = 0.0;
    for (uint32_t d = 0; d < rel.num_devices; ++d) {
      uint64_t stored = rel.local_vertices[d].size() + rel.remote_vertices[d].size();
      uint64_t edges = 0;
      for (VertexId v : rel.local_vertices[d]) {
        edges += ds.graph.Degree(v);
      }
      const uint64_t scale = bench::InverseScale(id);
      max_training =
          std::max(max_training, TrainingFootprintBytes(stored * scale, edges * scale,
                                                        ds.feature_dim, ds.hidden_dim, 2));
    }
    // Table ids scale with the relation size (full-size equivalent).
    const double table_per_gpu = static_cast<double>(report->plan_table_bytes) *
                                 bench::InverseScale(id) / rel.num_devices;
    table.AddRow({ds.name, TablePrinter::FmtBytes(table_per_gpu),
                  TablePrinter::FmtBytes(max_training),
                  TablePrinter::Fmt(table_per_gpu / max_training * 1e3, 3)});
  }
  char title[32];
  std::snprintf(title, sizeof(title), "(%u GPUs)", gpus);
  std::printf("%s\n", table.Render(title).c_str());
}

}  // namespace
}  // namespace dgcl

int main() {
  dgcl::bench::PrintHeader(
      "Figure 11: send/receive table memory over training memory (per mille)");
  dgcl::RunGpuCount(8);
  dgcl::RunGpuCount(16);
  std::printf("Paper shape: ratio below 2 permille for every dataset and GPU count.\n");
  return 0;
}
