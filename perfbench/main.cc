// perfbench_e2e: one run of one workload.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--git <sha>] [--out-dir <dir>]
//   perfbench_e2e --list-metrics
//
// Prints the run metadata, the workload's progress and checks, the metric
// table, and as its last line the JSON result. With --trace 0 the metrics
// are the end-to-end ones (telemetry off); with --trace 1 the per-layer
// ones (telemetry on, plus an untraced baseline for the tracing overhead).
// With --out-dir, the record (metadata + result + loss trajectory) and, on
// traced runs, the Chrome trace are written there. Exit 0 when every check
// passed, 1 when one failed, 2 on bad arguments, 3 on a benchmark bug.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload <train-orkut-4dev|"
               "setup-orkut-16dev|serve-reddit-4shard> --seed <n> --seconds <s> --trace <0|1> "
               "[--git <sha>] [--out-dir <dir>] | --list-metrics\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0)) {
        error = "--seconds must be positive";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        error = "--trace must be 0 or 1";
        return false;
      }
      args.trace = value == "1";
    } else if (flag == "--git") {
      args.git = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (args.workload.empty()) {
    error = "--workload is required";
    return false;
  }
  return true;
}

void WriteRecord(const Args& args, const RunInfo& info, const Report& report) {
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0") +
                           ".json";
  std::ofstream out(path, std::ios::trunc);
  out << "{\"meta\": " << MetadataJson(info) << ", \"result\": " << report.ResultJson();
  for (const auto& [key, json] : report.records()) {
    out << ", \"" << key << "\": " << json;
  }
  out << "}\n";
  if (!out) {
    std::fprintf(stderr, "perfbench_e2e: cannot write %s\n", path.c_str());
  }
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    for (const MetricDef& m : Metrics()) {
      std::printf("%s %s %s\n", m.kind == MetricKind::kEndToEnd ? "end_to_end" : "per_layer",
                  m.name, m.unit);
    }
    return 0;
  }
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, args, error)) {
    return Usage(error.c_str());
  }
  dgcl::Status (*run)(const Args&, Report&, SpanLog&) = nullptr;
  if (args.workload == "train-orkut-4dev") {
    run = RunTrain;
  } else if (args.workload == "setup-orkut-16dev") {
    run = RunSetup;
  } else if (args.workload == "serve-reddit-4shard") {
    run = RunServe;
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  const RunInfo info{args.workload, args.seed, args.seconds, args.trace, args.git};
  std::printf("meta %s\n", MetadataJson(info).c_str());
  std::fflush(stdout);

  Report report(args.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd);
  SpanLog spans;
  const dgcl::Status status = run(args, report, spans);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench_e2e: %s failed: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  if (args.trace) {
    report.Set("trace.events", static_cast<double>(spans.events()));
    report.Set("trace.dropped_events", static_cast<double>(spans.dropped()));
  }
  if (const auto missing = report.Missing(); !missing.empty()) {
    std::fprintf(stderr, "perfbench_e2e: %s set no value for %s\n", args.workload.c_str(),
                 missing.front().c_str());
    return 3;
  }

  std::printf("%s", report.Table().c_str());
  if (!args.out_dir.empty()) {
    WriteRecord(args, info, report);
    if (args.trace) {
      const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + "-trace.json";
      if (dgcl::Status written = spans.Write(path); !written.ok()) {
        std::fprintf(stderr, "perfbench_e2e: %s\n", written.ToString().c_str());
      }
    }
  }
  std::printf("%s\n", report.ResultJson().c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
