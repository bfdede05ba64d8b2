// Threaded graphAllgather execution engine.
//
// Runs a compiled communication plan on real embedding data, one thread per
// simulated device, coordinated with the decentralized ready/done flags of
// §6.1 and no central coordinator. Each row crosses once: the sender writes
// it from its own slot row straight into the receiver's slot row (a copy
// forward, an add backward), then raises the op's done flag, which is all
// the receiver waits on. A wait spins briefly, then parks until the device
// whose flag it awaits wakes it.
//
// A pass is a sequence of *rounds*: the stages forward, and (stage
// descending, §6.2 sub-stage ascending) backward. A device does its sends of
// a round, then its receives, then publishes its progress; a sender of a
// round-r op waits until the receiver has entered the pass and finished
// rounds < r. So backward adds land in round order, and Create rejects a
// plan in which two ops of one round add into the same row.
//
// Work reaches the devices as *programs* (RunProgram): each device runs its
// own program once, device 0 on the calling thread and device d > 0 on the
// engine's persistent thread d, and the program runs the engine's passes in
// place on a slot matrix the device keeps (DevicePasses), between its own
// compute. A trainer runs a whole epoch as one program; the flags count
// across its passes. Forward and Backward are one-pass programs.
//
// Every transfer rides a per-pair Connection (transport.h), whose Transmit
// emulates the wire (injected latency/jitter/drops with bounded retry,
// optional bandwidth emulation) before the rows are written. Every wait is
// deadline-bounded (TransportPolicy::wait_timeout_micros), so a dead peer
// fails the collective with kDeadlineExceeded, and is recorded as a span
// tagged {peer, stage, op} (`tools/dgcl_trace summarize --waits`).
//
// The forward pass delivers, for every device, the embeddings of its local
// plus required remote vertices; the backward pass routes gradient
// contributions along the same trees in reverse, accumulating at each hop, so
// each owner ends up with the total gradient for its local vertices.

#ifndef DGCL_RUNTIME_ALLGATHER_ENGINE_H_
#define DGCL_RUNTIME_ALLGATHER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "comm/compiled_plan.h"
#include "comm/relation.h"
#include "common/status.h"
#include "runtime/transport.h"
#include "topology/topology.h"

namespace dgcl {

// Row-major float matrix view used at the engine boundary.
struct EmbeddingMatrix {
  uint32_t rows = 0;
  uint32_t dim = 0;
  std::vector<float> data;  // rows * dim

  float* Row(uint32_t r) { return data.data() + static_cast<size_t>(r) * dim; }
  const float* Row(uint32_t r) const { return data.data() + static_cast<size_t>(r) * dim; }

  static EmbeddingMatrix Zero(uint32_t rows, uint32_t dim) {
    EmbeddingMatrix m;
    m.rows = rows;
    m.dim = dim;
    m.data.assign(static_cast<size_t>(rows) * dim, 0.0f);
    return m;
  }
};

// Engine construction options, fixed at Create (the same options-first shape
// as SpstOptions / MultilevelOptions). None of these change what a pass
// delivers — outputs stay bit-identical to the default for every setting;
// they change which transports a pass rides and how it is faulted and timed.
struct EngineOptions {
  // Straggler injection for tests: `straggler_device` sleeps
  // `straggler_micros` before every stage (§6.1's transient stragglers only
  // delay their own dependents, never correctness). kInvalidId disables.
  uint32_t straggler_device = kInvalidId;
  uint32_t straggler_micros = 0;

  // Per-connection retry/timeout/emulation policy and injected faults.
  TransportPolicy transport;
  FaultInjection faults;

  // Forced transports per ordered pair (ablations); selection falls back to
  // the SelectTransport decision table for unlisted pairs.
  std::vector<TransportOverride> transport_overrides;

  Status Validate() const;
};

// Post-mortem of a failed pass: the verdict Status plus the device set the
// survivors suspect of being dead. A device is suspected when it either
// self-reported death or was named by a timed-out wait and never demonstrably
// ran the pass itself — a named peer that produced its own (even failing)
// status was merely blocked on someone else and stays innocent. This is the
// input to MembershipService::CommitFailure (recovery.h).
struct PassFailure {
  Status status;
  DeviceMask suspects = 0;
  uint64_t pass_index = 0;  // which pass failed, counting every pass run from 0
};

class AllgatherEngine;
struct ProgramState;
class DeviceThreads;

// One device's side of a running program: runs the engine's passes in place,
// on the device's thread. Every device of a program must run the same
// sequence of passes.
class DevicePasses {
 public:
  uint32_t device() const { return device_; }

  // `slots` has NumSlots(device()) rows of the program's dim, its first
  // num_local rows holding the device's local embeddings. On success every
  // other row the plan delivers holds its vertex's embedding. Peers write
  // into `slots` while the pass runs; after a failed pass one may still be
  // writing, so the program must not touch `slots` again, and `slots` must
  // outlive RunProgram, which returns once every device has stopped.
  Status Forward(EmbeddingMatrix& slots);

  // `slots` has NumSlots(device()) rows of the program's dim: the slot
  // gradients, with the forwarded-only extra rows zero. On success the first
  // num_local rows hold the accumulated gradients of the local vertices; the
  // other rows are scratch. A failed pass leaves `slots` as Forward's does.
  Status Backward(EmbeddingMatrix& slots);

 private:
  friend class AllgatherEngine;
  DevicePasses(const AllgatherEngine& engine, ProgramState& state, uint32_t device)
      : engine_(engine), state_(state), device_(device) {}

  Status Pass(bool backward, EmbeddingMatrix& slots);

  const AllgatherEngine& engine_;
  ProgramState& state_;
  const uint32_t device_;
  uint32_t next_pass_ = 0;  // index of the next pass within the program
  uint64_t next_base_ = 1;  // progress this device stores on entering it
};

// A device's part of a program. Runs once per device, concurrently; returns
// the status of the first pass that failed (or its own error).
using DeviceProgram = std::function<Status(DevicePasses&)>;

class AllgatherEngine {
 public:
  // Validates the plan against the relation (delivery and causality),
  // precomputes per-device slot tables, each op's slots on both ends and
  // each device's per-round op lists, builds the per-pair connection table
  // and starts the device threads. Returns InvalidArgument for a plan in
  // which two ops of one backward round add into the same row (an unsplit
  // plan: run AssignBackwardSubstages first). The relation, plan and
  // topology must outlive the engine.
  static Result<AllgatherEngine> Create(const CommRelation& relation, CompiledPlan plan,
                                        const Topology& topo, EngineOptions options = {});

  AllgatherEngine(AllgatherEngine&&) noexcept;
  AllgatherEngine& operator=(AllgatherEngine&&) noexcept;
  ~AllgatherEngine();  // joins the device threads

  // Runs `program` once per device, device 0 on the calling thread and device
  // d > 0 on the engine's thread d, every pass at embedding width `dim`.
  // Returns OK when every device's program returned OK. Otherwise returns the
  // verdict of the failed passes (kDeadlineExceeded / kUnavailable when a peer
  // dies or a transport exhausts its retries), also kept as last_failure();
  // a failure aborts the waits of every device, in whichever pass it is.
  // Programs on one engine serialize.
  Status RunProgram(uint32_t dim, const DeviceProgram& program) const;

  // `local[d]` holds device d's local embeddings, one row per vertex in
  // relation.local_vertices[d] order, all with the same dim, and `data`
  // holds exactly rows * dim floats (InvalidArgument otherwise). Returns per
  // device a matrix over its slots: local rows first, then remote rows in
  // relation.remote_vertices[d] order (forwarded-only extras are appended
  // after and are not part of the contract). A one-pass program.
  Result<std::vector<EmbeddingMatrix>> Forward(const std::vector<EmbeddingMatrix>& local) const;

  // `slot_grads[d]` has the same shape as Forward's output for device d
  // (extras rows zero-extended internally if absent), its `data` exactly
  // rows * dim floats (InvalidArgument otherwise). Returns per device the
  // accumulated gradients for its local vertices only. A one-pass program.
  Result<std::vector<EmbeddingMatrix>> Backward(
      const std::vector<EmbeddingMatrix>& slot_grads) const;

  const EngineOptions& options() const { return options_; }

  // Post-mortem of the first failed pass of the most recent failed program
  // (nullopt while every pass has succeeded). Cleared by the next successful
  // program. This is what the recovery protocol reads to seed the membership
  // commit.
  std::optional<PassFailure> last_failure() const;

  // Passes run so far, successful or not. A failed program counts its passes
  // up to and including the first one that failed.
  uint64_t pass_count() const;

  // Per-pair connections (transport kind, fault/retry counters). Read-only
  // for callers; counters accumulate across passes.
  const ConnectionTable& connections() const { return connections_; }

  // Slot index of a global vertex on a device; kInvalidId if the device
  // never holds it. Locals occupy [0, num_local), remotes follow.
  uint32_t SlotOf(uint32_t device, VertexId v) const;
  uint32_t NumSlots(uint32_t device) const { return slot_counts_[device]; }
  uint32_t NumContractSlots(uint32_t device) const;  // locals + remotes

  const CompiledPlan& plan() const { return plan_; }

 private:
  friend class DevicePasses;

  AllgatherEngine();

  // Device `device`'s side of pass `pass` of the running program; `base` is
  // the progress it stores on entering the pass.
  Status RunDevice(uint32_t device, uint32_t pass, uint64_t base, bool backward,
                   EmbeddingMatrix& mine, ProgramState& state) const;
  // Folds the devices' outcomes into the program's verdict.
  Status Verdict(const ProgramState& state) const;

  const CommRelation* relation_ = nullptr;
  const Topology* topo_ = nullptr;
  EngineOptions options_;
  CompiledPlan plan_;
  // Mutable: Transmit advances a connection's fault and retry state.
  mutable ConnectionTable connections_;
  // Programs on one engine serialize (concurrent calls are safe, they just
  // queue). Heap-held so the engine stays movable.
  std::unique_ptr<std::mutex> program_mutex_;
  // Threads of devices 1..N-1, parked between programs. Heap-held: the
  // threads keep its address.
  std::unique_ptr<DeviceThreads> threads_;
  // Both guarded by program_mutex_ (written at program end, read via
  // accessors).
  mutable uint64_t pass_count_ = 0;
  mutable std::optional<PassFailure> last_failure_;
  std::vector<std::unordered_map<VertexId, uint32_t>> slots_;  // per device
  std::vector<uint32_t> slot_counts_;

  // Per op: the slot of vertices[i] on op.src and on op.dst, so passes read
  // and write rows without a hash lookup.
  struct OpSlots {
    std::vector<uint32_t> src;
    std::vector<uint32_t> dst;
  };
  std::vector<OpSlots> op_slots_;
  // One direction's rounds: first_round[step] is the first round of the
  // step-th stage it runs, then the round count; per device, each round's ops.
  struct Rounds {
    struct DeviceOps {
      std::vector<std::vector<uint32_t>> sends;
      std::vector<std::vector<uint32_t>> recvs;
    };
    std::vector<uint32_t> first_round;
    std::vector<DeviceOps> devices;
    uint32_t count() const { return first_round.back(); }
  };
  Rounds forward_;
  Rounds backward_;
};

}  // namespace dgcl

#endif  // DGCL_RUNTIME_ALLGATHER_ENGINE_H_
