// Elastic fault recovery: survive a dead device by re-planning onto the
// surviving topology.
//
// A dead peer surfaces as kDeadlineExceeded from a deadline-bounded wait
// instead of a hang. This subsystem answers what happens then. The paper's
// pipeline (partition -> relation -> SPST plan -> compiled tables) is exactly
// the machinery needed to recover: agree on the failed device set, fold the
// dead device's vertices into the survivors, rebuild the plan for the
// surviving topology and run the failed epoch again. Training is full-graph
// and synchronous, so every epoch computes the same global gradient on any
// layout; the retried epoch re-runs its exchanges like any other epoch.
//
// This header holds the *mechanisms* (membership epochs, surviving-topology
// derivation, the incremental repartition heuristic); the *protocol driver*
// that stitches them into the planning pipeline lives in DgclContext::Recover
// and ElasticTrainingSession (src/dgcl/elastic.h). Every phase is a
// DGCL_TSPAN under the "recovery" category, so `dgcl_trace summarize
// --recovery` breaks MTTR down per phase.
//
// The serving tier does not commit through MembershipService: its liveness
// is the ReplicaSet's per-shard replica masks (service/replica_set.h), and
// it only reports a MembershipView derived from them.

#ifndef DGCL_RUNTIME_RECOVERY_H_
#define DGCL_RUNTIME_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "comm/relation.h"
#include "common/status.h"
#include "partition/partitioner.h"
#include "topology/topology.h"

namespace dgcl {

// Status codes the recovery protocol can handle: a deadline-bounded wait that
// ran out (the dead-peer signature) or an unavailable peer/transport.
bool IsRecoverableFailure(const Status& status);

// A membership epoch: which devices (in the *current* device-id space) are
// alive. The epoch is bumped by every committed failure and carried across
// the device-id compaction that follows, so "membership epoch e" globally
// orders recoveries.
struct MembershipView {
  uint64_t epoch = 0;
  DeviceMask alive = 0;

  bool IsAlive(uint32_t device) const { return (alive >> device) & 1; }
  uint32_t NumAlive() const;
  std::vector<uint32_t> DeadDevices(uint32_t num_devices) const;
};

// Centralized membership agreement, off the data path (the engine's passes
// coordinate through peer flags only): conceptually the lowest-id survivor
// collects the suspicion votes (the engine's PassFailure::suspects) and
// commits the new epoch; every survivor adopts the committed view. In this in-process
// reproduction the collection is a function call, but the commit rules are
// the real ones: only currently-alive devices can be declared dead, at least
// one device must be declared dead, and at least one must survive.
class MembershipService {
 public:
  MembershipService(uint32_t num_devices, uint64_t starting_epoch = 0);

  const MembershipView& view() const { return view_; }
  uint32_t num_devices() const { return num_devices_; }

  // Commits `suspects & alive` as dead and bumps the epoch. Fails when the
  // effective suspect set is empty or would leave no survivor.
  Result<MembershipView> CommitFailure(DeviceMask suspects);

 private:
  uint32_t num_devices_ = 0;
  MembershipView view_;
};

// The surviving topology after a membership commit: dead devices removed and
// the survivors compacted to [0, NumAlive). Physical connections are copied
// verbatim (a dead GPU does not remove a bus); links between two survivors
// keep their hop lists. Fully-connected topologies stay fully connected.
struct SurvivingTopology {
  Topology topology;
  std::vector<uint32_t> old_to_new;  // kInvalidId for dead devices
  std::vector<uint32_t> new_to_old;
};

Result<SurvivingTopology> BuildSurvivingTopology(const Topology& topo,
                                                 const MembershipView& view);

struct RepartitionStats {
  uint64_t moved_vertices = 0;  // vertices that changed owner
  uint64_t moved_classes = 0;   // dead-sourced equivalence classes rerouted
};

// Incremental repartition: reassigns every vertex owned by a dead device to a
// survivor without re-running the (expensive) multilevel partitioner. The
// heuristic works over the existing destination-set equivalence classes: a
// dead-sourced class moves wholesale to the cheapest survivor *in its
// destination set* (those devices already need every member vertex, so the
// move erases one transfer obligation per vertex instead of adding one),
// least-loaded-first for balance; classes with no surviving destination and
// dead-owned vertices with no destinations at all go to the least-loaded
// survivor. Returns an assignment in the same (pre-compaction) device-id
// space using only surviving ids; RemapPartitioning compacts it.
Result<Partitioning> IncrementalRepartition(const CommClasses& classes,
                                            const Partitioning& partitioning,
                                            const MembershipView& view,
                                            RepartitionStats* stats = nullptr);

// Rewrites an assignment through `old_to_new` (entries must all be alive).
Result<Partitioning> RemapPartitioning(const Partitioning& partitioning,
                                       const std::vector<uint32_t>& old_to_new,
                                       uint32_t new_num_parts);

// What one completed recovery cost, phase by phase (seconds). The same
// breakdown is recorded as "recovery.<phase>" telemetry spans; bench_recovery
// reports it as the MTTR table.
struct RecoveryReport {
  uint64_t epoch = 0;                     // membership epoch after the commit
  std::vector<uint32_t> failed_devices;   // ids in the pre-recovery space
  uint32_t survivors = 0;
  uint64_t moved_vertices = 0;
  uint64_t moved_classes = 0;

  double detect_seconds = 0.0;       // failure classification + suspect readout
  double membership_seconds = 0.0;   // epoch commit
  double repartition_seconds = 0.0;  // surviving topology + incremental repartition
  double replan_seconds = 0.0;       // relation + SPST + compile + arm engine
  double restore_seconds = 0.0;      // trainer rebuild + weight restore
  double resume_seconds = 0.0;       // the retried epoch, to completion

  // Recovery work proper (everything but the retried epoch).
  double MttrSeconds() const {
    return detect_seconds + membership_seconds + repartition_seconds + replan_seconds +
           restore_seconds;
  }
};

}  // namespace dgcl

#endif  // DGCL_RUNTIME_RECOVERY_H_
