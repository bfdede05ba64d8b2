// Elastic recovery MTTR vs full restart.
//
// Kills one device mid-epoch (FaultInjection::dead_from_pass) while training
// on the real threaded runtime, lets ElasticTrainingSession run the recovery
// protocol, and reports the per-phase wall times (detect / membership /
// repartition / replan / restore) next to the cost of the alternative every
// non-elastic system pays: a full restart — re-partition (METIS), re-plan
// (SPST), re-compile and re-arm the runtime for the surviving topology from
// scratch. Recovery's advantage is structural: the incremental repartition
// reuses the already-computed destination-set classes instead of running
// METIS again. The retried epoch re-runs all of its allgathers on the
// survivors; its wall time is the "resume ms" column, outside MTTR.
//
// One untimed warm-up case runs first, so no case pays process warm-up.
// Every case then runs kRepeats times; the table and the JSON records give
// each column's median, and the verdict compares the median MTTR with the
// median restart.
//
// Usage: bench_recovery [--json out.json] [--trace out.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/percentile.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "dgcl/dgcl.h"
#include "dgcl/elastic.h"
#include "gnn/trainer.h"

namespace dgcl {
namespace {

struct KillPoint {
  const char* label;
  uint32_t pass;  // engine pass index; 2-layer model => 2 passes per epoch
};

constexpr int kRepeats = 9;

struct BenchCase {
  std::string dataset;
  const char* kill;
  RecoveryReport report;
  double full_restart_s = 0.0;
};

// Full-restart baseline: everything a non-elastic system redoes to get a
// runnable trainer on the surviving topology (partition + plan + compile +
// arm + trainer build). The lost epoch's recompute is excluded on BOTH sides
// — recovery's retried epoch is reported separately as resume_seconds.
Result<double> FullRestartSeconds(const CsrGraph& graph, uint32_t survivors,
                                  const EmbeddingMatrix& features,
                                  const std::vector<uint32_t>& labels, uint32_t num_classes,
                                  const TrainerOptions& trainer_options) {
  WallTimer timer;
  DGCL_ASSIGN_OR_RETURN(DgclContext ctx, DgclContext::Init(BuildPaperTopology(survivors)));
  DGCL_RETURN_IF_ERROR(ctx.BuildCommInfo(graph));
  DGCL_ASSIGN_OR_RETURN(DistributedTrainer trainer,
                        DistributedTrainer::Create(graph, ctx.artifacts().relation, ctx.engine(),
                                                   features, labels, num_classes,
                                                   trainer_options));
  (void)trainer;
  return timer.ElapsedMillis() / 1e3;
}

Result<BenchCase> RunCase(DatasetId id, const KillPoint& kill, uint32_t gpus) {
  // Extra scale reduction on top of the standard stand-in: this bench runs
  // real training passes (threads + dense kernels), not the simulator.
  Dataset dataset = MakeDataset(id, bench::InverseScale(id) * 16);
  const uint32_t n = dataset.graph.num_vertices();
  const uint32_t num_classes = 8;
  Rng rng(97);
  EmbeddingMatrix features = EmbeddingMatrix::Zero(n, 16);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t c = 0; c < features.dim; ++c) {
      features.Row(v)[c] = static_cast<float>(rng.UniformDouble()) - 0.5f;
    }
  }
  std::vector<uint32_t> labels(n);
  for (uint32_t v = 0; v < n; ++v) {
    labels[v] = static_cast<uint32_t>(rng.UniformInt(num_classes));
  }
  TrainerOptions trainer_options;
  trainer_options.num_layers = 2;
  trainer_options.hidden_dim = 16;

  DgclOptions options;
  options.engine.faults.dead_device = gpus / 2;
  options.engine.faults.dead_from_pass = kill.pass;
  options.engine.transport.wait_timeout_micros = 100'000;
  DGCL_ASSIGN_OR_RETURN(DgclContext ctx, DgclContext::Init(BuildPaperTopology(gpus), options));
  DGCL_RETURN_IF_ERROR(ctx.BuildCommInfo(dataset.graph));
  DGCL_ASSIGN_OR_RETURN(ElasticTrainingSession session,
                        ElasticTrainingSession::Create(ctx, dataset.graph, features, labels,
                                                       num_classes, trainer_options));
  const uint32_t epochs =
      kill.pass / DistributedTrainer::PassesPerEpoch(trainer_options.num_layers) + 1;
  for (uint32_t e = 0; e < epochs; ++e) {
    DGCL_ASSIGN_OR_RETURN(EpochResult result, session.TrainEpoch());
    (void)result;
  }
  if (session.recoveries() != 1) {
    return Status::Internal("kill point " + std::string(kill.label) + " never triggered");
  }

  BenchCase out;
  out.dataset = dataset.name;
  out.kill = kill.label;
  out.report = session.recovery_log()[0];
  DGCL_ASSIGN_OR_RETURN(out.full_restart_s,
                        FullRestartSeconds(dataset.graph, gpus - 1, features, labels, num_classes,
                                           trainer_options));
  return out;
}

int Run(int argc, char** argv) {
  auto json_path = bench::ConsumeJsonFlag(&argc, argv);
  auto trace_path = bench::ConsumeTraceFlag(&argc, argv);
  bench::PrintHeader("Elastic recovery: per-phase MTTR vs full restart (8 GPUs, kill 1; medians "
                     "of " + std::to_string(kRepeats) + " runs)");

  const KillPoint kKillPoints[] = {
      {"fwd-early", 0},   // epoch 0, layer 1 forward
      {"bwd", 1},         // epoch 0, layer 1 backward
      {"epoch1-mid", 2},  // epoch 1, layer 1 forward
  };
  const DatasetId kDatasets[] = {DatasetId::kReddit, DatasetId::kComOrkut,
                                 DatasetId::kWebGoogle, DatasetId::kWikiTalk};

  // Untimed: the first case of a process pays its warm-up.
  if (auto warm = RunCase(kDatasets[0], kKillPoints[0], 8); !warm.ok()) {
    std::printf("warm-up failed: %s\n", warm.status().ToString().c_str());
    return 1;
  }

  // The timed columns, in table order.
  enum Column {
    kDetect, kMembership, kRepartition, kReplan, kRestore, kMttr, kResume, kRestart, kColumns
  };
  TablePrinter table({"Dataset", "Kill", "detect ms", "member ms", "repart ms", "replan ms",
                      "restore ms", "MTTR ms", "resume ms", "restart ms", "restart/MTTR"});
  std::vector<bench::JsonRecord> records;
  bool all_faster = true;
  for (DatasetId id : kDatasets) {
    for (const KillPoint& kill : kKillPoints) {
      std::vector<double> samples[kColumns];
      std::string dataset;
      uint64_t moved_vertices = 0;
      for (int r = 0; r < kRepeats; ++r) {
        auto result = RunCase(id, kill, 8);
        if (!result.ok()) {
          std::printf("%s/%s failed: %s\n", DatasetName(id), kill.label,
                      result.status().ToString().c_str());
          return 1;
        }
        const RecoveryReport& report = result->report;
        const double values[kColumns] = {
            report.detect_seconds,  report.membership_seconds, report.repartition_seconds,
            report.replan_seconds,  report.restore_seconds,    report.MttrSeconds(),
            report.resume_seconds,  result->full_restart_s};
        for (int c = 0; c < kColumns; ++c) {
          samples[c].push_back(values[c]);
        }
        dataset = result->dataset;
        moved_vertices = report.moved_vertices;
      }
      double median[kColumns];
      for (int c = 0; c < kColumns; ++c) {
        median[c] = Percentile(samples[c], 0.5);
      }
      all_faster = all_faster && median[kMttr] < median[kRestart];
      std::vector<std::string> row = {dataset, kill.label};
      for (int c = 0; c < kColumns; ++c) {
        row.push_back(TablePrinter::Fmt(median[c] * 1e3, 3));
      }
      row.push_back(TablePrinter::Fmt(median[kRestart] / median[kMttr], 2));
      table.AddRow(row);
      bench::JsonRecord record;
      record.AddString("dataset", dataset);
      record.AddString("kill_point", kill.label);
      record.AddInt("kill_pass", kill.pass);
      record.AddInt("gpus", 8);
      record.AddInt("repeats", kRepeats);
      record.AddInt("moved_vertices", moved_vertices);
      record.AddNumber("detect_s", median[kDetect]);
      record.AddNumber("membership_s", median[kMembership]);
      record.AddNumber("repartition_s", median[kRepartition]);
      record.AddNumber("replan_s", median[kReplan]);
      record.AddNumber("restore_s", median[kRestore]);
      record.AddNumber("resume_s", median[kResume]);
      record.AddNumber("mttr_s", median[kMttr]);
      record.AddNumber("full_restart_s", median[kRestart]);
      records.push_back(std::move(record));
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("recovery %s full restart on every (dataset, kill point), medians of %d runs\n",
              all_faster ? "beat" : "did NOT beat", kRepeats);

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
