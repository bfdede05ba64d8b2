// perfbench_selftest: the benchmark's output checks must catch corrupted
// outputs, and its metric table must be well formed. Runs on a small graph
// in well under a second; `python3 perfbench/run.py --selftest` runs it and
// also holds the metric table against BENCHMARK.json.

#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "checks.h"
#include "core.h"
#include "dgcl/dgcl.h"
#include "graph/generators.h"
#include "service/service.h"
#include "topology/presets.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    ++failures;
  }
}

void FlipBit(float& x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&x, &bits, sizeof(bits));
}

bool ValidName(const std::string& s) {
  if (s.empty() || s.size() > 64 || !std::isalnum(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

bool ValidUnit(const std::string& s) {
  if (s.empty() || s.size() > 16) {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && !std::strchr("_/%.-", c)) {
      return false;
    }
  }
  return true;
}

void MetricTable() {
  std::set<std::string> seen;
  bool ok = true;
  for (const MetricDef& m : Metrics()) {
    ok = ok && ValidName(m.name) && ValidUnit(m.unit) && seen.insert(m.name).second;
  }
  Expect(ok, "metric names are unique and well formed, units are well formed");
}

void EngineChecks() {
  dgcl::Rng rng(5);
  const dgcl::CsrGraph graph = dgcl::GenerateCommunityGraph(400, 4, 12.0, 1.0, rng);
  auto ctx = dgcl::DgclContext::Init(dgcl::BuildPaperTopology(4));
  if (!ctx.ok() || !ctx->BuildCommInfo(graph).ok()) {
    Expect(false, "set-up of the small graph");
    return;
  }
  const dgcl::CommRelation& relation = ctx->artifacts().relation;
  dgcl::EmbeddingMatrix features = dgcl::EmbeddingMatrix::Zero(graph.num_vertices(), 8);
  for (float& x : features.data) {
    x = rng.UniformFloat(-1.0f, 1.0f);
  }
  auto slots = ctx->GraphAllgather(*ctx->DispatchFeatures(features));
  Expect(slots.ok() && CheckForwardSlots(relation, features, *slots).empty(),
         "forward check passes on the engine's output");
  uint32_t device = 0;
  while (relation.remote_vertices[device].empty()) {
    ++device;
  }
  {
    auto corrupt = *slots;
    const uint32_t slot = static_cast<uint32_t>(relation.local_vertices[device].size() +
                                                relation.remote_vertices[device].size() - 1);
    FlipBit(corrupt[device].Row(slot)[3]);
    Expect(!CheckForwardSlots(relation, features, corrupt).empty(),
           "forward check catches one flipped bit in a remote slot row");
  }
  {
    auto corrupt = *slots;
    FlipBit(corrupt[device].Row(0)[0]);
    Expect(!CheckForwardSlots(relation, features, corrupt).empty(),
           "forward check catches one flipped bit in a local slot row");
  }
  const auto grads = MakeSlotGrads(relation, 8, 9);
  auto back = ctx->GraphAllgatherBackward(grads);
  Expect(back.ok() && CheckBackward(relation, grads, *back).empty(),
         "backward check passes on the engine's output");
  {
    auto corrupt = *back;
    corrupt[device].Row(0)[1] += 1.0f;
    Expect(!CheckBackward(relation, grads, corrupt).empty(),
           "backward check catches a wrong accumulated gradient");
  }
}

void ServingChecks() {
  const dgcl::Dataset dataset = dgcl::MakeDataset(dgcl::DatasetId::kReddit, 512, 3);
  dgcl::ServiceOptions options;
  options.num_shards = 4;
  options.samplers_per_shard = 1;
  auto service = dgcl::GraphService::Create(dataset.graph, options);
  if (!service.ok()) {
    Expect(false, "service on the small graph");
    return;
  }
  dgcl::SampleRequest request;
  request.request_id = 7;
  request.shard = 1;
  request.sample.seed = 11;
  request.run_inference = true;
  request.return_features = true;
  const dgcl::SampleResponse a = (*service)->Serve(request);
  const dgcl::SampleResponse b = (*service)->Serve(request);
  Expect(a.status.ok() && CompareResponses(a, b).empty(),
         "serving check passes on two replays of one request");
  {
    dgcl::SampleResponse corrupt = b;
    FlipBit(corrupt.features.data[corrupt.features.data.size() / 2]);
    Expect(!CompareResponses(a, corrupt).empty(),
           "serving check catches one flipped bit in a feature row");
  }
  {
    dgcl::SampleResponse corrupt = b;
    FlipBit(corrupt.embeddings.data.back());
    Expect(!CompareResponses(a, corrupt).empty(),
           "serving check catches one flipped bit in an embedding");
  }
  {
    dgcl::SampleResponse corrupt = b;
    corrupt.nodes.back() ^= 1;
    Expect(!CompareResponses(a, corrupt).empty(), "serving check catches a wrong sampled node");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::MetricTable();
  perfbench::EngineChecks();
  perfbench::ServingChecks();
  std::printf("selftest: %s\n", perfbench::failures == 0 ? "all passed" : "FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
