#include "sim/network_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/logging.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

// Volume multiplier of an atomic-reduction backward stage (§6.2, Table 9).
constexpr double kAtomicOverheadFactor = 1.35;

struct Flow {
  std::vector<ConnId> hops;
  double bytes_left = 0.0;
  double rate = 0.0;              // bytes/s, renegotiated on every event
  double completion_time = -1.0;  // filled when done

  bool Active() const { return bytes_left > 1e-9; }
};

// Max-min fair rates via progressive filling over the active flows.
void AssignMaxMinRates(std::vector<Flow>& flows, const Topology& topo) {
  const uint32_t num_conns = topo.num_connections();
  std::vector<double> capacity(num_conns);  // remaining bytes/s
  std::vector<uint32_t> unfrozen_count(num_conns, 0);
  for (ConnId c = 0; c < num_conns; ++c) {
    capacity[c] = topo.connection(c).bandwidth_gbps * 1e9;
  }
  std::vector<uint32_t> unfrozen;
  for (uint32_t i = 0; i < flows.size(); ++i) {
    flows[i].rate = 0.0;
    if (flows[i].Active()) {
      unfrozen.push_back(i);
      for (ConnId c : flows[i].hops) {
        ++unfrozen_count[c];
      }
    }
  }
  while (!unfrozen.empty()) {
    // The next saturating connection determines the common rate increment.
    double fair = std::numeric_limits<double>::infinity();
    for (ConnId c = 0; c < num_conns; ++c) {
      if (unfrozen_count[c] > 0) {
        fair = std::min(fair, capacity[c] / unfrozen_count[c]);
      }
    }
    DGCL_CHECK(std::isfinite(fair));
    std::vector<uint32_t> still_unfrozen;
    bool froze_any = false;
    for (uint32_t i : unfrozen) {
      bool saturated = false;
      for (ConnId c : flows[i].hops) {
        if (capacity[c] / unfrozen_count[c] <= fair * (1.0 + 1e-9)) {
          saturated = true;
          break;
        }
      }
      if (saturated) {
        flows[i].rate = fair;
        froze_any = true;
        for (ConnId c : flows[i].hops) {
          capacity[c] -= fair;
          --unfrozen_count[c];
        }
      } else {
        still_unfrozen.push_back(i);
      }
    }
    DGCL_CHECK(froze_any);
    unfrozen = std::move(still_unfrozen);
  }
}

// Runs the flow set to completion; returns the makespan and accumulates
// per-connection busy time. Per-flow completion times go to `completions`
// when non-null.
double RunFlows(std::vector<Flow>& flows, const Topology& topo,
                std::vector<double>* conn_busy, std::vector<double>* completions) {
  double now = 0.0;
  auto any_left = [&flows]() {
    for (const Flow& f : flows) {
      if (f.Active()) {
        return true;
      }
    }
    return false;
  };
  while (any_left()) {
    AssignMaxMinRates(flows, topo);
    double dt = std::numeric_limits<double>::infinity();
    for (const Flow& f : flows) {
      if (f.Active() && f.rate > 0.0) {
        dt = std::min(dt, f.bytes_left / f.rate);
      }
    }
    DGCL_CHECK(std::isfinite(dt));
    std::vector<uint8_t> conn_active;
    if (conn_busy != nullptr) {
      conn_active.assign(conn_busy->size(), 0);
    }
    for (Flow& f : flows) {
      if (!f.Active()) {
        continue;
      }
      if (conn_busy != nullptr) {
        for (ConnId c : f.hops) {
          conn_active[c] = 1;
        }
      }
      f.bytes_left -= f.rate * dt;
      if (f.bytes_left <= 1e-9) {
        f.bytes_left = 0.0;
        f.completion_time = now + dt;
      }
    }
    if (conn_busy != nullptr) {
      for (ConnId c = 0; c < conn_active.size(); ++c) {
        if (conn_active[c]) {
          (*conn_busy)[c] += dt;
        }
      }
    }
    now += dt;
  }
  if (completions != nullptr) {
    completions->clear();
    for (const Flow& f : flows) {
      completions->push_back(f.completion_time < 0.0 ? 0.0 : f.completion_time);
    }
  }
  return now;
}

// Hops an op's traffic traverses for the given direction.
std::vector<ConnId> OpHops(const TransferOp& op, const Topology& topo,
                           PassDirection direction) {
  if (direction == PassDirection::kForward) {
    return topo.link(op.link).hops;
  }
  LinkId reverse = topo.LinkBetween(op.dst, op.src);
  if (reverse != kInvalidId) {
    return topo.link(reverse).hops;
  }
  return topo.link(op.link).hops;  // symmetric-medium approximation
}

}  // namespace

double NetworkSimResult::TypeBusySeconds(const Topology& topo, LinkType type) const {
  double total = 0.0;
  for (ConnId c = 0; c < conn_busy_seconds.size(); ++c) {
    if (topo.connection(c).type == type) {
      total = std::max(total, conn_busy_seconds[c]);
    }
  }
  return total;
}

NetworkSimResult SimulateTransfer(const CompiledPlan& plan, const Topology& topo,
                                  const NetworkSimOptions& options, PassDirection direction) {
  DGCL_TSPAN2("sim", direction == PassDirection::kBackward ? "sim.bwd.transfer"
                                                           : "sim.fwd.transfer",
              "ops", plan.ops.size(), "stages", plan.num_stages);
  NetworkSimResult result;
  result.conn_busy_seconds.assign(topo.num_connections(), 0.0);
  result.stage_seconds.assign(plan.num_stages, 0.0);

  // Stages always serialize. Within a stage all ops are concurrent flows;
  // in the non-atomic backward pass (§6.2) the ops aggregating at the same
  // device are chained by sub-stage — different devices' chains overlap.
  std::map<uint32_t, std::vector<const TransferOp*>> stage_map;
  for (const TransferOp& op : plan.ops) {
    stage_map[op.stage].push_back(&op);
  }
  // The backward pass runs the stages in reverse. Stage times are summed in
  // execution order, so keep that order: floating-point addition is not
  // associative, and any other order changes the simulated doubles.
  std::vector<std::pair<uint32_t, const std::vector<const TransferOp*>*>> stages;
  stages.reserve(stage_map.size());
  for (const auto& [stage, ops] : stage_map) {
    stages.emplace_back(stage, &ops);
  }
  const bool backward = direction == PassDirection::kBackward;
  if (backward) {
    std::reverse(stages.begin(), stages.end());
  }
  for (const auto& [stage, ops_ptr] : stages) {
    const std::vector<const TransferOp*>& ops = *ops_ptr;
    // Backward aggregation cost model (§6.2, Table 9): with atomic
    // reductions every received gradient byte pays the atomic penalty; with
    // the non-atomic sub-stage split the receive tables are partitioned so
    // peers still stream concurrently and only a flag synchronization per
    // extra sub-stage is added.
    double volume_factor = 1.0;
    uint32_t substage_rounds = 1;
    if (backward) {
      if (options.non_atomic) {
        for (const TransferOp* op : ops) {
          substage_rounds = std::max(substage_rounds, op->substage + 1);
        }
      } else {
        volume_factor = kAtomicOverheadFactor;
      }
    }
    std::vector<Flow> flows(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      flows[i].hops = OpHops(*ops[i], topo, direction);
      flows[i].bytes_left =
          static_cast<double>(ops[i]->vertices.size()) * options.bytes_per_unit * volume_factor;
      result.total_bytes +=
          static_cast<uint64_t>(ops[i]->vertices.size() * options.bytes_per_unit);
    }
    const double flow_time = RunFlows(flows, topo, &result.conn_busy_seconds, nullptr);
    const double stage_time = flow_time + options.per_op_latency_s * substage_rounds;
    result.stage_seconds[stage] += stage_time;
    result.total_seconds += stage_time;
  }
  if (telemetry::Telemetry::Enabled()) {
    // Simulated occupancy, exported as counter series: per-stage wall time
    // and per-hop busy time tagged by the hop's link type.
    const bool bwd = direction == PassDirection::kBackward;
    for (uint32_t k = 0; k < result.stage_seconds.size(); ++k) {
      telemetry::Counter("sim", bwd ? "sim.bwd.stage_seconds" : "sim.fwd.stage_seconds",
                         result.stage_seconds[k], "stage", k);
    }
    for (ConnId c = 0; c < result.conn_busy_seconds.size(); ++c) {
      if (result.conn_busy_seconds[c] > 0.0) {
        telemetry::Counter(LinkTypeName(topo.connection(c).type), "sim.conn_busy_seconds",
                           result.conn_busy_seconds[c], "conn", c);
      }
    }
  }
  return result;
}

std::vector<double> SimulateConcurrentFlows(const Topology& topo,
                                            const std::vector<LinkId>& links,
                                            const std::vector<double>& bytes) {
  DGCL_CHECK_EQ(links.size(), bytes.size());
  std::vector<Flow> flows(links.size());
  for (size_t i = 0; i < links.size(); ++i) {
    flows[i].hops = topo.link(links[i]).hops;
    flows[i].bytes_left = bytes[i];
  }
  std::vector<double> completions;
  RunFlows(flows, topo, nullptr, &completions);
  return completions;
}

}  // namespace dgcl
