// Discrete-event network simulator: the stand-in for the paper's multi-GPU
// testbed (see DESIGN.md, "Hardware substitutions").
//
// Executes a compiled plan stage by stage. Within a stage all transfer ops
// are concurrent flows; bandwidth on every physical connection is shared
// max-min fairly among the flows crossing it, and flows re-negotiate rates
// whenever one completes (progressive filling). This is deliberately *finer*
// than the planner's cost model — the cost model assumes a stage is one big
// batch at full contention, the simulator lets early finishers release
// bandwidth and charges per-op startup latency — which is what makes the
// Figure 10 estimate-vs-actual comparison meaningful.

#ifndef DGCL_SIM_NETWORK_SIM_H_
#define DGCL_SIM_NETWORK_SIM_H_

#include <cstdint>
#include <vector>

#include "comm/compiled_plan.h"
#include "topology/topology.h"

namespace dgcl {

enum class PassDirection : uint8_t { kForward, kBackward };

struct NetworkSimOptions {
  double bytes_per_unit = 1024.0;     // embedding bytes (dim * sizeof(float))
  double per_op_latency_s = 20e-6;    // fixed startup cost per transfer op
  // Backward pass only: with non_atomic=true, sub-stages within a stage run
  // sequentially so gradient aggregation is conflict-free (§6.2); with
  // false, everything in a stage runs concurrently but every received
  // gradient byte pays the atomic-reduction penalty (1.35x its volume).
  bool non_atomic = true;
};

struct NetworkSimResult {
  double total_seconds = 0.0;
  std::vector<double> stage_seconds;       // per stage
  std::vector<double> conn_busy_seconds;   // per physical connection
  uint64_t total_bytes = 0;

  // Busy time summed over connections of a link type (Table 2 / Table 7).
  double TypeBusySeconds(const Topology& topo, LinkType type) const;
};

// Runs the plan. In the backward pass stages execute in reverse order and
// every op's traffic flows dst -> src over the reverse link (falling back to
// the forward link's hops if no reverse link exists).
NetworkSimResult SimulateTransfer(const CompiledPlan& plan, const Topology& topo,
                                  const NetworkSimOptions& options,
                                  PassDirection direction = PassDirection::kForward);

// A single standalone flow set (used by micro benches, e.g. the Table 3
// contention probe): flows[i] transfers `bytes[i]` over link `links[i]`,
// all concurrently. Returns per-flow completion seconds.
std::vector<double> SimulateConcurrentFlows(const Topology& topo,
                                            const std::vector<LinkId>& links,
                                            const std::vector<double>& bytes);

}  // namespace dgcl

#endif  // DGCL_SIM_NETWORK_SIM_H_
