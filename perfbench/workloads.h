// The benchmark's workloads. Each makes its inputs from the seed, measures
// for the given number of seconds, checks its outputs, and fills the report:
// end-to-end metrics on a timed run (telemetry off), per-layer metrics on a
// traced run. A layer a workload never calls reports 0.

#ifndef DGCL_PERFBENCH_WORKLOADS_H_
#define DGCL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git = "unknown";
  std::string out_dir;  // record and trace files go here when non-empty
};

// train-orkut-4dev (gpus = 4) and setup-orkut-16dev (gpus = 16).
dgcl::Status RunTrain(const Args& args, Report& report, SpanLog& spans);
dgcl::Status RunSetup(const Args& args, Report& report, SpanLog& spans);
// serve-reddit-4shard.
dgcl::Status RunServe(const Args& args, Report& report, SpanLog& spans);

}  // namespace perfbench

#endif  // DGCL_PERFBENCH_WORKLOADS_H_
