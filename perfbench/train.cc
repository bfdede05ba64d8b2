// The full-graph workloads on the Com-Orkut stand-in (65,536 vertices,
// ~2.27 M directed edges; generation is not timed):
//
//  * train-orkut-4dev: 4 GPUs in one NVLink quad. Set-up (Init +
//    BuildCommInfo, repeated, median), then a closed loop of GCN training
//    epochs (2 layers, feature dim 64, hidden 16). op = one TrainEpoch. The
//    traced run adds a closed loop of GraphAllgather forward and backward
//    passes at dim 64 (256-byte rows) for the runtime's per-layer numbers.
//  * setup-orkut-16dev: 16 GPUs on two DGX-1-style machines. Init +
//    BuildCommInfo repeated on fresh contexts for the whole run; op = one
//    set-up.
//    One untimed forward and backward pass check delivery: 16 device
//    threads on a small host would time the scheduler, not the engine.
//
// Both check every forward slot row against its owner's source row and the
// first backward pass against a reference accumulation from the relation.

#include <malloc.h>

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "pipeline.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dgcl::EmbeddingMatrix;
using dgcl::Status;

constexpr uint32_t kDim = 64;
constexpr uint32_t kClasses = 8;
constexpr int kSetupReps = 5;
// Trace ring per thread; engine pass threads live for one pass, so rings are
// drained after every pass and epoch.
constexpr size_t kTraceRing = 1 << 14;

struct Inputs {
  dgcl::Dataset dataset;
  EmbeddingMatrix features;  // [vertices x kDim]
  std::vector<uint32_t> labels;
};

// `relabel`: the graph relabeled by `seed` (SeededDataset), or the fixed
// stand-in. The 16-GPU set-up keeps the fixed graph: relabelings split its
// peak memory into two modes (about 130 and 180 MB) by how the partition
// falls, and the graph is that workload's only input.
Inputs MakeInputs(uint64_t seed, bool relabel) {
  Inputs in;
  in.dataset = relabel ? SeededDataset(dgcl::DatasetId::kComOrkut, 64, seed)
                       : dgcl::MakeDataset(dgcl::DatasetId::kComOrkut, 64);
  const uint32_t n = in.dataset.graph.num_vertices();
  dgcl::Rng rng(seed ^ 0xfea7u);
  in.features = EmbeddingMatrix::Zero(n, kDim);
  in.labels.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    in.labels[v] = static_cast<uint32_t>(rng.UniformInt(kClasses));
    float* row = in.features.Row(v);
    for (uint32_t c = 0; c < kDim; ++c) {
      row[c] = rng.UniformFloat(-0.5f, 0.5f);
    }
    row[in.labels[v]] += 0.8f;
  }
  std::printf("graph %s: %u vertices, %llu edges (seed %llu)\n", in.dataset.name.c_str(), n,
              static_cast<unsigned long long>(in.dataset.graph.num_edges()),
              static_cast<unsigned long long>(seed));
  return in;
}

// One forward and one backward pass through the public API, each checked.
void CheckPasses(const dgcl::DgclContext& ctx, const Inputs& in, uint64_t seed,
                 Report& report) {
  const dgcl::CommRelation& relation = ctx.artifacts().relation;
  report.Attempt(2);
  auto local = ctx.DispatchFeatures(in.features);
  if (!local.ok()) {
    report.Fail("DispatchFeatures: " + local.status().ToString());
    return;
  }
  auto slots = ctx.GraphAllgather(*local);
  std::string error = slots.ok() ? CheckForwardSlots(relation, in.features, *slots)
                                 : "GraphAllgather: " + slots.status().ToString();
  if (!error.empty()) {
    report.Fail(error);
  }
  const std::vector<EmbeddingMatrix> grads = MakeSlotGrads(relation, kDim, seed);
  auto back = ctx.GraphAllgatherBackward(grads);
  error = back.ok() ? CheckBackward(relation, grads, *back)
                    : "GraphAllgatherBackward: " + back.status().ToString();
  if (!error.empty()) {
    report.Fail(error);
  }
}

double Median(const std::vector<double>& v) { return Pct(v, 0.5); }

// Sets of set-up seconds, one per fresh Init + BuildCommInfo.
struct SetupRuns {
  std::vector<double> seconds;
  // Traced runs: the share of each set-up that the program's own phase
  // spans inside BuildCommInfo account for.
  std::vector<double> phase_share;
  std::optional<dgcl::DgclContext> last;
};

Status RepeatSetup(const dgcl::CsrGraph& graph, uint32_t gpus, int reps, Report& report,
                   SetupRuns& runs, SpanLog* spans) {
  for (int r = 0; r < reps; ++r) {
    report.Attempt();
    // One context alive at a time, its memory handed back before the next
    // set-up, so the process's peak memory is one set-up's, not the
    // allocator's leftovers from several.
    runs.last.reset();
    malloc_trim(0);
    DGCL_ASSIGN_OR_RETURN(Setup setup, TimedSetup(graph, gpus));
    if (spans != nullptr) {
      // The program's own phase spans inside BuildCommInfo, for comparison
      // with the layer-by-layer set-up.
      const SpanSummary s = spans->Drain();
      double phases_s = 0.0;
      for (const char* phase : {"phase.partition", "phase.relation", "phase.plan",
                                "phase.expand", "phase.compile", "phase.arm_engine"}) {
        phases_s += TotalMs(s, phase) / 1e3;
      }
      runs.phase_share.push_back(phases_s / setup.seconds);
      std::printf("traced set-up %.4f s: program phase spans %.4f s (partition %.4f s, plan "
                  "%.4f s)\n",
                  setup.seconds, phases_s, TotalMs(s, "phase.partition") / 1e3,
                  TotalMs(s, "phase.plan") / 1e3);
    }
    runs.seconds.push_back(setup.seconds);
    runs.last = std::move(setup.context);
  }
  return Status::Ok();
}

struct EpochLoop {
  std::vector<double> ms;
  std::vector<double> losses;
  double wall_seconds = 0.0;
  // Traced runs: per-span totals summed over the loop's epochs.
  SpanSummary spans;
};

void RunEpochs(dgcl::DistributedTrainer& trainer, double seconds, Report& report,
               SpanLog* spans, EpochLoop& loop) {
  const double start = NowSeconds();
  while (NowSeconds() - start < seconds || loop.ms.size() < 3) {
    report.Attempt();
    const double t0 = NowSeconds();
    auto epoch = trainer.TrainEpoch();
    const double t1 = NowSeconds();
    if (!epoch.ok()) {
      report.Fail("TrainEpoch: " + epoch.status().ToString());
      break;
    }
    if (!std::isfinite(epoch->loss)) {
      report.Fail("TrainEpoch: loss is not finite");
    }
    loop.ms.push_back((t1 - t0) * 1e3);
    loop.losses.push_back(epoch->loss);
    if (spans != nullptr) {
      for (auto& [name, t] : spans->Drain()) {
        SpanTotals& sum = loop.spans[name];
        sum.count += t.count;
        sum.total_ms += t.total_ms;
        sum.self_ms += t.self_ms;
      }
    }
  }
  loop.wall_seconds = NowSeconds() - start;
}

// All the digits, so two runs' trajectories can be compared for bit identity.
std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

dgcl::Result<dgcl::DistributedTrainer> MakeTrainer(const dgcl::DgclContext& ctx,
                                                  const Inputs& in) {
  dgcl::TrainerOptions options;
  options.model = dgcl::GnnModel::kGcn;
  options.num_layers = 2;
  options.hidden_dim = 16;
  return dgcl::DistributedTrainer::Create(in.dataset.graph, ctx.artifacts().relation,
                                          ctx.engine(), in.features, in.labels, kClasses,
                                          options);
}

void ReportEpochs(const EpochLoop& loop, Report& report) {
  std::printf("epochs: %zu in %.3f s; loss trajectory %s\n", loop.ms.size(), loop.wall_seconds,
              JsonArray(loop.losses).c_str());
  report.AddRecord("epoch_losses", JsonArray(loop.losses));
  report.AddRecord("epoch_ms", JsonArray(loop.ms));
}

// Forward/backward closed loop through the public API (traced run only).
// Returns per-pass wall times, and the engine's wait and busy time per
// device per pass, from the pass threads' spans.
struct PassLoop {
  std::vector<double> fwd_ms, bwd_ms;
  double fwd_wait_ms = 0.0, bwd_wait_ms = 0.0;
  double fwd_busy_ms = 0.0, bwd_busy_ms = 0.0;
};

// Coordination waits inside a pass's stage spans.
double StageWaitMs(const SpanSummary& s, const std::string& dir) {
  return TotalMs(s, dir + ".wait.ready") + TotalMs(s, dir + ".wait.done") +
         TotalMs(s, dir + ".wait.chunk");
}

// One pass's drained spans: wait and busy (stage time not waiting) per device.
void AddPass(const SpanSummary& s, const std::string& dir, double devices, double& wait_ms,
             double& busy_ms) {
  const double in_stage = StageWaitMs(s, dir);
  wait_ms += (in_stage + TotalMs(s, "wait.barrier")) / devices;
  busy_ms += (TotalMs(s, dir + ".stage") - in_stage) / devices;
}

void RunPasses(const dgcl::DgclContext& ctx, const Inputs& in, double seconds, uint64_t seed,
               Report& report, SpanLog& spans, PassLoop& loop) {
  auto local = ctx.DispatchFeatures(in.features);
  if (!local.ok()) {
    report.Fail("DispatchFeatures: " + local.status().ToString());
    return;
  }
  const std::vector<EmbeddingMatrix> grads =
      MakeSlotGrads(ctx.artifacts().relation, kDim, seed);
  const double devices = ctx.num_devices();
  spans.Drain();
  const double start = NowSeconds();
  while (NowSeconds() - start < seconds || loop.bwd_ms.size() < 3) {
    report.Attempt(2);
    double t0 = NowSeconds();
    auto fwd = ctx.GraphAllgather(*local);
    loop.fwd_ms.push_back((NowSeconds() - t0) * 1e3);
    AddPass(spans.Drain(), "fwd", devices, loop.fwd_wait_ms, loop.fwd_busy_ms);
    t0 = NowSeconds();
    auto bwd = ctx.GraphAllgatherBackward(grads);
    loop.bwd_ms.push_back((NowSeconds() - t0) * 1e3);
    AddPass(spans.Drain(), "bwd", devices, loop.bwd_wait_ms, loop.bwd_busy_ms);
    if (!fwd.ok() || !bwd.ok()) {
      report.Fail("engine pass: " + (fwd.ok() ? bwd.status() : fwd.status()).ToString());
      return;
    }
  }
  const double n = static_cast<double>(loop.fwd_ms.size());
  loop.fwd_wait_ms /= n;
  loop.bwd_wait_ms /= n;
  loop.fwd_busy_ms /= n;
  loop.bwd_busy_ms /= n;
}

uint64_t Retries(const dgcl::AllgatherEngine& engine) {
  uint64_t retries = 0;
  for (size_t i = 0; i < engine.connections().size(); ++i) {
    retries += engine.connections().connection(i).stats().retries;
  }
  return retries;
}

// Per-layer seconds from the layer-by-layer set-ups; the phase share from
// the program's phase spans inside the traced BuildCommInfo calls.
void ReportPhases(const std::vector<PhaseSeconds>& runs, const SetupRuns& traced,
                  Report& report) {
  auto median_of = [&](double PhaseSeconds::*field) {
    std::vector<double> v;
    for (const PhaseSeconds& p : runs) {
      v.push_back(p.*field);
    }
    return Median(v);
  };
  report.Set("partition.s", median_of(&PhaseSeconds::partition));
  report.Set("comm.relation.s", median_of(&PhaseSeconds::relation));
  report.Set("planner.plan.s", median_of(&PhaseSeconds::plan));
  report.Set("comm.expand.s", median_of(&PhaseSeconds::expand));
  report.Set("comm.compile.s", median_of(&PhaseSeconds::compile));
  report.Set("runtime.arm.s", median_of(&PhaseSeconds::arm));
  std::vector<double> sums;
  for (const PhaseSeconds& p : runs) {
    sums.push_back(p.Sum());
  }
  const double sum = Median(sums);
  const double share = Median(traced.phase_share);
  report.Set("setup.phase_sum_s", sum);
  report.Set("setup.phase_share", share);
  std::printf("layer-by-layer set-up (median of %zu): partition %.4f s, relation %.4f s, plan "
              "%.4f s, expand %.4f s, compile %.4f s, arm %.4f s; sum %.4f s against traced "
              "set-up %.4f s; program phase spans cover %.3f of it\n",
              runs.size(), median_of(&PhaseSeconds::partition),
              median_of(&PhaseSeconds::relation), median_of(&PhaseSeconds::plan),
              median_of(&PhaseSeconds::expand), median_of(&PhaseSeconds::compile),
              median_of(&PhaseSeconds::arm), sum, Median(traced.seconds), share);
}

Status LayeredRuns(const dgcl::CsrGraph& graph, uint32_t gpus, int reps, SpanLog& spans,
                   std::vector<PhaseSeconds>& runs) {
  for (int r = 0; r < reps; ++r) {
    DGCL_ASSIGN_OR_RETURN(const PhaseSeconds p, LayeredSetup(graph, gpus));
    runs.push_back(p);
    std::printf("layered set-up %.4f s: partition %.4f s, relation %.4f s, plan %.4f s, "
                "expand %.4f s, compile %.4f s, arm %.4f s\n",
                p.Sum(), p.partition, p.relation, p.plan, p.expand, p.compile, p.arm);
    spans.Drain();
  }
  return Status::Ok();
}

}  // namespace

Status RunTrain(const Args& args, Report& report, SpanLog& spans) {
  const Inputs in = MakeInputs(args.seed, /*relabel=*/true);
  const dgcl::CsrGraph& graph = in.dataset.graph;
  constexpr uint32_t kGpus = 4;

  if (!args.trace) {
    SetupRuns setups;
    DGCL_RETURN_IF_ERROR(RepeatSetup(graph, kGpus, kSetupReps, report, setups, nullptr));
    CheckPasses(*setups.last, in, args.seed, report);
    DGCL_ASSIGN_OR_RETURN(dgcl::DistributedTrainer trainer, MakeTrainer(*setups.last, in));
    EpochLoop loop;
    RunEpochs(trainer, args.seconds, report, nullptr, loop);
    ReportEpochs(loop, report);
    report.Set("setup_s", Median(setups.seconds));
    report.Set("peak_rss_mb", PeakRssMb());
    report.Set("op_ms_p50", Pct(loop.ms, 0.5));
    std::printf("set-up runs: %zu; epoch samples: %zu\n", setups.seconds.size(), loop.ms.size());
    return Status::Ok();
  }

  // Traced run. First an untraced baseline of the same epochs, then the
  // same work with telemetry on.
  const double part = args.seconds / 4.0;
  double untraced_p50 = 0.0;
  {
    SetupRuns setups;
    DGCL_RETURN_IF_ERROR(RepeatSetup(graph, kGpus, 1, report, setups, nullptr));
    DGCL_ASSIGN_OR_RETURN(dgcl::DistributedTrainer trainer, MakeTrainer(*setups.last, in));
    EpochLoop loop;
    RunEpochs(trainer, part, report, nullptr, loop);
    untraced_p50 = Pct(loop.ms, 0.5);
  }
  spans.Start(kTraceRing);
  SetupRuns setups;
  DGCL_RETURN_IF_ERROR(RepeatSetup(graph, kGpus, 2, report, setups, &spans));
  const double traced_setup_s = Median(setups.seconds);
  std::vector<PhaseSeconds> phases;
  DGCL_RETURN_IF_ERROR(LayeredRuns(graph, kGpus, 2, spans, phases));
  const dgcl::DgclContext& ctx = *setups.last;
  CheckPasses(ctx, in, args.seed, report);
  spans.Drain();

  PassLoop passes;
  RunPasses(ctx, in, part, args.seed, report, spans, passes);
  DGCL_ASSIGN_OR_RETURN(dgcl::DistributedTrainer trainer, MakeTrainer(ctx, in));
  spans.Drain();
  EpochLoop loop;
  RunEpochs(trainer, part, report, &spans, loop);
  spans.Stop();
  ReportEpochs(loop, report);

  ReportPhases(phases, setups, report);
  ReportPlanFacts(graph, ctx.artifacts(), kDim, report);
  const double fwd_p50 = Pct(passes.fwd_ms, 0.5);
  report.Set("runtime.fwd.ms_p50", fwd_p50);
  report.Set("runtime.fwd.ms_p90", Pct(passes.fwd_ms, 0.9));
  report.Set("runtime.bwd.ms_p50", Pct(passes.bwd_ms, 0.5));
  report.Set("runtime.bwd.ms_p90", Pct(passes.bwd_ms, 0.9));
  report.Set("runtime.fwd.wait_ms", passes.fwd_wait_ms);
  report.Set("runtime.bwd.wait_ms", passes.bwd_wait_ms);
  report.Set("runtime.fwd.busy_ms", passes.fwd_busy_ms);
  report.Set("runtime.bwd.busy_ms", passes.bwd_busy_ms);
  report.Set("runtime.transport.retries", static_cast<double>(Retries(ctx.engine())));
  uint64_t delivered_rows = 0;
  for (const auto& remotes : ctx.artifacts().relation.remote_vertices) {
    delivered_rows += remotes.size();
  }
  const double delivered_bytes = static_cast<double>(delivered_rows) * kDim * sizeof(float);
  report.Set("runtime.fwd.gbps", delivered_bytes / (fwd_p50 / 1e3) / 1e9);
  std::printf("passes: %zu forward, %zu backward; forward p50 %.3f ms delivers %.0f bytes\n",
              passes.fwd_ms.size(), passes.bwd_ms.size(), fwd_p50, delivered_bytes);
  ReportRooflines(args.seed, report);

  // Per epoch, from the trainer's own spans.
  const double epochs = static_cast<double>(loop.ms.size());
  const SpanSummary& s = loop.spans;
  const char* kLayerSpans[][2] = {{"gnn.layer.allgather_ms", "layer.allgather"},
                                  {"gnn.layer.compute_ms", "layer.compute"},
                                  {"gnn.layer.bwd.compute_ms", "layer.bwd.compute"},
                                  {"gnn.layer.bwd.allgather_ms", "layer.bwd.allgather"},
                                  {"gnn.grad.sync_ms", "grad.sync"}};
  double covered = 0.0;
  for (const auto& [metric, span] : kLayerSpans) {
    report.Set(metric, TotalMs(s, span) / epochs);
    covered += TotalMs(s, span);
  }
  const double epoch_total = TotalMs(s, "epoch.train");
  auto epoch_it = s.find("epoch.train");
  report.Set("gnn.epoch.self_ms", epoch_it == s.end() ? 0.0 : epoch_it->second.self_ms / epochs);
  report.Set("gnn.epoch.coverage", epoch_total > 0 ? covered / epoch_total : 0.0);

  const double traced_p50 = Pct(loop.ms, 0.5);
  report.Set("trace.setup_s", traced_setup_s);
  report.Set("trace.op_ms_p50", traced_p50);
  report.Set("trace.overhead_ms", traced_p50 - untraced_p50);
  ZeroUnused(report, "service.");
  return Status::Ok();
}

Status RunSetup(const Args& args, Report& report, SpanLog& spans) {
  const Inputs in = MakeInputs(args.seed, /*relabel=*/false);
  const dgcl::CsrGraph& graph = in.dataset.graph;
  constexpr uint32_t kGpus = 16;

  if (!args.trace) {
    // The whole run is set-ups on fresh contexts; op = one set-up.
    SetupRuns setups;
    const double start = NowSeconds();
    while (NowSeconds() - start < args.seconds || setups.seconds.size() < 3) {
      DGCL_RETURN_IF_ERROR(RepeatSetup(graph, kGpus, 1, report, setups, nullptr));
      if (setups.seconds.size() == 1) {
        // The memory one set-up needs. Later repetitions add only what the
        // allocator's per-thread arenas happen to keep, which varies run to
        // run; the check's 16-thread passes are not part of the workload.
        report.Set("peak_rss_mb", PeakRssMb());
      }
    }
    const double wall = NowSeconds() - start;
    CheckPasses(*setups.last, in, args.seed, report);
    std::vector<double> ms;
    for (double s : setups.seconds) {
      ms.push_back(s * 1e3);
    }
    report.Set("setup_s", Median(setups.seconds));
    report.Set("op_ms_p50", Pct(ms, 0.5));
    std::printf("set-up runs: %zu in %.3f s\n", setups.seconds.size(), wall);
    return Status::Ok();
  }

  constexpr int kReps = 3;
  SetupRuns untraced;
  DGCL_RETURN_IF_ERROR(RepeatSetup(graph, kGpus, kReps, report, untraced, nullptr));
  untraced.last.reset();
  spans.Start(kTraceRing);
  SetupRuns traced;
  DGCL_RETURN_IF_ERROR(RepeatSetup(graph, kGpus, kReps, report, traced, &spans));
  std::vector<PhaseSeconds> phases;
  DGCL_RETURN_IF_ERROR(LayeredRuns(graph, kGpus, kReps, spans, phases));
  spans.Stop();
  CheckPasses(*traced.last, in, args.seed, report);

  const double traced_setup_s = Median(traced.seconds);
  ReportPhases(phases, traced, report);
  ReportPlanFacts(graph, traced.last->artifacts(), kDim, report);
  ReportRooflines(args.seed, report);
  report.Set("trace.setup_s", traced_setup_s);
  report.Set("trace.op_ms_p50", traced_setup_s * 1e3);
  report.Set("trace.overhead_ms", (traced_setup_s - Median(untraced.seconds)) * 1e3);
  ZeroUnused(report, "runtime.");
  ZeroUnused(report, "gnn.");
  ZeroUnused(report, "service.");
  return Status::Ok();
}

}  // namespace perfbench
