#include "runtime/recovery.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "common/ids.h"

namespace dgcl {
namespace {

DeviceMask FullMask(uint32_t num_devices) {
  if (num_devices >= kMaxDevices) {
    return ~DeviceMask{0};
  }
  return (DeviceMask{1} << num_devices) - 1;
}

// Least-loaded candidate, lowest id on ties, for deterministic reassignment.
uint32_t LeastLoaded(const std::vector<uint64_t>& load, DeviceMask candidates) {
  uint32_t best = kInvalidId;
  uint64_t best_load = std::numeric_limits<uint64_t>::max();
  for (uint32_t d = 0; d < load.size(); ++d) {
    if (!((candidates >> d) & 1)) {
      continue;
    }
    if (load[d] < best_load) {
      best = d;
      best_load = load[d];
    }
  }
  return best;
}

}  // namespace

bool IsRecoverableFailure(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kUnavailable;
}

uint32_t MembershipView::NumAlive() const { return static_cast<uint32_t>(std::popcount(alive)); }

std::vector<uint32_t> MembershipView::DeadDevices(uint32_t num_devices) const {
  std::vector<uint32_t> dead;
  for (uint32_t d = 0; d < num_devices; ++d) {
    if (!IsAlive(d)) {
      dead.push_back(d);
    }
  }
  return dead;
}

MembershipService::MembershipService(uint32_t num_devices, uint64_t starting_epoch)
    : num_devices_(num_devices) {
  view_.epoch = starting_epoch;
  view_.alive = FullMask(num_devices);
}

Result<MembershipView> MembershipService::CommitFailure(DeviceMask suspects) {
  const DeviceMask effective = suspects & view_.alive;
  if (effective == 0) {
    return Status::InvalidArgument(
        "MembershipService::CommitFailure: no currently-alive device among suspects");
  }
  if (effective == view_.alive) {
    return Status::FailedPrecondition(
        "MembershipService::CommitFailure: commit would leave no survivor");
  }
  view_.alive &= ~effective;
  ++view_.epoch;
  return view_;
}

Result<SurvivingTopology> BuildSurvivingTopology(const Topology& topo,
                                                 const MembershipView& view) {
  const uint32_t n = topo.num_devices();
  if (view.alive == 0) {
    return Status::InvalidArgument("BuildSurvivingTopology: empty membership");
  }
  if ((view.alive & ~FullMask(n)) != 0) {
    return Status::InvalidArgument("BuildSurvivingTopology: membership names devices outside topology");
  }

  SurvivingTopology out;
  out.old_to_new.assign(n, kInvalidId);
  for (uint32_t d = 0; d < n; ++d) {
    if (!view.IsAlive(d)) {
      continue;
    }
    out.old_to_new[d] = out.topology.AddDevice(topo.device(d));
    out.new_to_old.push_back(d);
  }
  // Physical contention domains survive a dead endpoint (a dead GPU does not
  // remove a bus), so connection ids — and thus link hop lists — are stable.
  for (uint32_t c = 0; c < topo.num_connections(); ++c) {
    out.topology.AddConnection(topo.connection(c));
  }
  for (const Link& link : topo.links()) {
    const uint32_t src = out.old_to_new[link.src];
    const uint32_t dst = out.old_to_new[link.dst];
    if (src == kInvalidId || dst == kInvalidId) {
      continue;
    }
    DGCL_ASSIGN_OR_RETURN(LinkId id, out.topology.AddLink(src, dst, link.hops));
    (void)id;
  }
  return out;
}

Result<Partitioning> IncrementalRepartition(const CommClasses& classes,
                                            const Partitioning& partitioning,
                                            const MembershipView& view,
                                            RepartitionStats* stats) {
  const uint32_t n = partitioning.num_parts;
  if (classes.num_devices != n) {
    return Status::InvalidArgument("IncrementalRepartition: classes/partitioning device mismatch");
  }
  if (view.alive == 0 || (view.alive & ~FullMask(n)) != 0) {
    return Status::InvalidArgument("IncrementalRepartition: membership does not fit partitioning");
  }
  if (view.alive == FullMask(n)) {
    return partitioning;  // nothing died
  }

  Partitioning out = partitioning;
  std::vector<uint64_t> load(n, 0);
  for (uint32_t part : out.assignment) {
    if (part >= n) {
      return Status::InvalidArgument("IncrementalRepartition: assignment entry out of range");
    }
    ++load[part];
  }

  RepartitionStats local_stats;
  // Dead-sourced equivalence classes move wholesale to the cheapest survivor
  // in their destination set: those devices already need every member vertex,
  // so the move erases one transfer obligation per vertex instead of adding
  // one. Least-loaded-first keeps the balance; classes whose destinations all
  // died fall back to the globally least-loaded survivor.
  for (const CommClass& cls : classes.classes) {
    if (view.IsAlive(cls.source)) {
      continue;
    }
    DeviceMask candidates = cls.mask & view.alive;
    if (candidates == 0) {
      candidates = view.alive;
    }
    const uint32_t target = LeastLoaded(load, candidates);
    for (VertexId v : cls.vertices) {
      out.assignment[v] = target;
    }
    load[target] += cls.weight;
    load[cls.source] -= cls.weight;
    ++local_stats.moved_classes;
    local_stats.moved_vertices += cls.weight;
  }
  // Dead-owned vertices with an empty destination set belong to no class;
  // sweep them to the least-loaded survivor.
  for (VertexId v = 0; v < out.assignment.size(); ++v) {
    if (view.IsAlive(out.assignment[v])) {
      continue;
    }
    const uint32_t target = LeastLoaded(load, view.alive);
    --load[out.assignment[v]];
    out.assignment[v] = target;
    ++load[target];
    ++local_stats.moved_vertices;
  }
  if (stats != nullptr) {
    *stats = local_stats;
  }
  return out;
}

Result<Partitioning> RemapPartitioning(const Partitioning& partitioning,
                                       const std::vector<uint32_t>& old_to_new,
                                       uint32_t new_num_parts) {
  Partitioning out;
  out.num_parts = new_num_parts;
  out.assignment.reserve(partitioning.assignment.size());
  for (size_t v = 0; v < partitioning.assignment.size(); ++v) {
    const uint32_t old_part = partitioning.assignment[v];
    if (old_part >= old_to_new.size() || old_to_new[old_part] == kInvalidId ||
        old_to_new[old_part] >= new_num_parts) {
      return Status::InvalidArgument("RemapPartitioning: vertex " + std::to_string(v) +
                                     " assigned to unmapped part " + std::to_string(old_part));
    }
    out.assignment.push_back(old_to_new[old_part]);
  }
  return out;
}

}  // namespace dgcl
