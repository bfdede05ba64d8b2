// dgcl_plan — command-line front end for the planning pipeline.
//
// Loads a graph (SNAP edge list or DGCL binary; synthetic RMAT if omitted),
// partitions it for a chosen topology preset, runs a planner, prints the
// plan statistics / cost estimate / simulated allgather time, and optionally
// saves the compiled plan for later runtime use.
//
// Usage:
//   dgcl_plan [--graph path] [--gpus N] [--no-nvlink] [--nvswitch]
//             [--machines M] [--dim D] [--planner <name>|auto]
//             [--list-planners] [--list-samplers] [--save-plan path]
//             [--seed S]
//
// --planner takes any strategy of PlannerNames() by name; "auto" plans with
// every strategy and commits the one that simulates fastest, printing the
// per-candidate scorecard. Numeric flags take unsigned decimals: --dim at
// least 1, --gpus 1..8 (1..16 with --nvswitch), --machines at least 1 with
// machines x gpus at most kMaxDevices; a bad value prints why and exits 1.
// --list-planners prints the planner strategy names and exits;
// --list-samplers prints the serving tier's sampling strategies (the names
// ServiceOptions::sampler takes).

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

#include "comm/plan_io.h"
#include "comm/plan_stats.h"
#include "comm/relation.h"
#include "common/table_printer.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "partition/hierarchical.h"
#include "partition/multilevel.h"
#include "planner/cost_model.h"
#include "planner/strategy.h"
#include "sim/network_sim.h"
#include "sim/planner_select.h"
#include "service/sampler.h"
#include "topology/presets.h"

using namespace dgcl;

namespace {

struct Args {
  std::string graph_path;
  std::string save_plan;
  std::string planner = "spst";
  uint32_t gpus = 8;
  uint32_t machines = 1;
  uint32_t dim = 128;
  uint64_t seed = 7;
  bool nvlink = true;
  bool nvswitch = false;
  bool list_planners = false;
  bool list_samplers = false;
};

void PrintUsage() {
  std::printf(
      "usage: dgcl_plan [--graph path] [--gpus N] [--machines M] [--no-nvlink]\n"
      "                 [--nvswitch] [--dim D] [--planner <name>|auto]\n"
      "                 [--list-planners] [--list-samplers] [--save-plan path]\n"
      "                 [--seed S]\n");
}

// Parses all of `text` as an unsigned decimal that fits T (no sign, no
// spaces, no range wrap); prints why and returns false otherwise.
template <typename T>
bool ParseUnsigned(const char* flag, const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "%s takes an unsigned %zu-bit integer, got \"%s\"\n", flag,
                 sizeof(T) * 8, text);
    return false;
  }
  return true;
}

// The ranges BuildCluster and the planner accept, checked once every flag
// is known (--nvswitch may follow --gpus).
bool CheckRanges(const Args& args) {
  if (args.dim < 1) {
    std::fprintf(stderr, "--dim must be at least 1, got %u\n", args.dim);
    return false;
  }
  const uint32_t max_gpus = args.nvswitch ? 16 : 8;
  if (args.gpus < 1 || args.gpus > max_gpus) {
    std::fprintf(stderr, "--gpus must be 1..%u%s, got %u\n", max_gpus,
                 args.nvswitch ? " with --nvswitch" : " (1..16 with --nvswitch)", args.gpus);
    return false;
  }
  if (args.machines < 1) {
    std::fprintf(stderr, "--machines must be at least 1, got %u\n", args.machines);
    return false;
  }
  const uint64_t devices = uint64_t{args.machines} * args.gpus;
  if (devices > kMaxDevices) {
    std::fprintf(stderr, "--machines x --gpus must be at most %u devices, got %llu\n",
                 kMaxDevices, static_cast<unsigned long long>(devices));
    return false;
  }
  return true;
}

bool Parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    auto number = [&](const char* name, auto& out) {
      const char* v = next(name);
      return v != nullptr && ParseUnsigned(name, v, out);
    };
    if (flag == "--graph") {
      const char* v = next("--graph");
      if (v == nullptr) {
        return false;
      }
      args.graph_path = v;
    } else if (flag == "--save-plan") {
      const char* v = next("--save-plan");
      if (v == nullptr) {
        return false;
      }
      args.save_plan = v;
    } else if (flag == "--planner") {
      const char* v = next("--planner");
      if (v == nullptr) {
        return false;
      }
      args.planner = v;
    } else if (flag == "--gpus") {
      if (!number("--gpus", args.gpus)) {
        return false;
      }
    } else if (flag == "--machines") {
      if (!number("--machines", args.machines)) {
        return false;
      }
    } else if (flag == "--dim") {
      if (!number("--dim", args.dim)) {
        return false;
      }
    } else if (flag == "--seed") {
      if (!number("--seed", args.seed)) {
        return false;
      }
    } else if (flag == "--list-planners") {
      args.list_planners = true;
    } else if (flag == "--list-samplers") {
      args.list_samplers = true;
    } else if (flag == "--no-nvlink") {
      args.nvlink = false;
    } else if (flag == "--nvswitch") {
      args.nvswitch = true;
    } else if (flag == "--help" || flag == "-h") {
      PrintUsage();
      return false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      PrintUsage();
      return false;
    }
  }
  return CheckRanges(args);
}

Result<CsrGraph> LoadGraph(const Args& args) {
  if (args.graph_path.empty()) {
    Rng rng(args.seed);
    std::printf("no --graph given; generating a synthetic RMAT graph (seed %llu)\n",
                static_cast<unsigned long long>(args.seed));
    return GenerateRmat({.scale = 13, .num_edges = 100000}, rng);
  }
  if (args.graph_path.size() > 4 &&
      args.graph_path.compare(args.graph_path.size() - 4, 4, ".bin") == 0) {
    return LoadBinary(args.graph_path);
  }
  return LoadEdgeList(args.graph_path, /*symmetrize=*/true, /*compact_ids=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) {
    return 1;
  }
  if (args.list_planners) {
    std::printf("planner strategies:\n");
    for (const std::string& name : PlannerNames()) {
      std::printf("  %s\n", name.c_str());
    }
    std::printf("  auto (simulated-time selection over the above)\n");
    return 0;
  }
  if (args.list_samplers) {
    std::printf("sampler strategies:\n");
    for (const std::string& name : SamplerNames()) {
      std::printf("  %s\n", name.c_str());
    }
    return 0;
  }

  auto graph = LoadGraph(args);
  if (!graph.ok()) {
    std::fprintf(stderr, "load failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("graph: %s\n", ComputeStats(*graph).ToString().c_str());

  MachineConfig config;
  config.num_gpus = args.gpus;
  config.nvlink = args.nvlink;
  config.nvswitch = args.nvswitch;
  Topology topo = BuildCluster(args.machines, config);
  std::printf("topology: %u machines x %u GPUs = %u devices, %u physical connections\n",
              args.machines, args.gpus, topo.num_devices(), topo.num_connections());

  MultilevelPartitioner metis;
  auto parts = PartitionForTopology(*graph, topo, metis);
  if (!parts.ok()) {
    std::fprintf(stderr, "partitioning failed: %s\n", parts.status().ToString().c_str());
    return 1;
  }
  std::printf("partition: %s\n", EvaluatePartition(*graph, *parts).ToString().c_str());

  auto rel = BuildCommRelation(*graph, *parts);
  if (!rel.ok()) {
    std::fprintf(stderr, "relation failed: %s\n", rel.status().ToString().c_str());
    return 1;
  }
  std::printf("communication relation: %llu vertex transfers\n",
              static_cast<unsigned long long>(rel->TotalTransfers()));

  PlannerOptions popts;
  popts.strategy = args.planner;
  if (Status s = popts.Validate(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  const double bytes = static_cast<double>(args.dim) * sizeof(float);
  CommClasses classes = BuildCommClasses(*rel);
  SelectionReport report;
  auto class_plan = PlanWithStrategy(popts, classes, topo, bytes, &report);
  if (!class_plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n", class_plan.status().ToString().c_str());
    return 1;
  }
  if (popts.IsAuto()) {
    std::printf("\nauto-select scorecard (winner starred):\n%s", report.Table().c_str());
  }
  CommPlan expanded = ExpandClassPlan(*class_plan, classes);
  if (Status s = ValidatePlan(expanded, *rel, topo); !s.ok()) {
    std::fprintf(stderr, "plan invalid: %s\n", s.ToString().c_str());
    return 1;
  }
  const CommPlan* plan = &expanded;

  CompiledPlan compiled = CompilePlan(*class_plan, classes, topo);
  AssignBackwardSubstages(compiled);
  NetworkSimOptions net;
  net.bytes_per_unit = bytes;
  const double simulated = SimulateTransfer(compiled, topo, net).total_seconds;
  std::printf("\nplanner %s (embedding dim %u):\n", class_plan->planner_name.c_str(), args.dim);
  std::printf("  stages              %u\n", plan->NumStages());
  std::printf("  transfer ops        %zu\n", compiled.ops.size());
  std::printf("  link traversals     %llu\n",
              static_cast<unsigned long long>(PlanTotalTraffic(*plan)));
  std::printf("  send/recv tables    %s\n",
              TablePrinter::FmtBytes(static_cast<double>(compiled.TableBytes())).c_str());
  std::printf("  plan stats          %s\n",
              ComputePlanStats(*plan, *rel, topo).ToString().c_str());
  std::printf("  cost-model estimate %.3f ms\n", EvaluatePlanCost(*plan, topo, bytes) * 1e3);
  std::printf("  simulated allgather %.3f ms\n", simulated * 1e3);

  if (!args.save_plan.empty()) {
    if (Status s = SaveCompiledPlan(compiled, topo, args.save_plan); !s.ok()) {
      std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("compiled plan saved to %s\n", args.save_plan.c_str());
  }
  return 0;
}
