// Pluggable per-pair transports (§6.2).
//
// On real hardware DGCL picks a transport per device pair: CUDA virtual
// memory for GPUs under one CPU socket, pinned host memory across sockets,
// and a NIC helper thread (with GPU RDMA when available) across machines. In
// this reproduction all transports resolve to shared memory, but the
// *selection logic* is preserved and the transport is a first-class object,
// not a bare enum: every device pair that appears in a compiled plan gets a
// `Connection` created from the `SelectTransport` decision table (optionally
// overridden per pair for ablations). A connection holds only wire state —
// injectable latency/jitter/drop for the emulated NIC path, bounded retry
// with exponential backoff, wall-clock bandwidth emulation used to calibrate
// the runtime against the planner's cost model (see
// EpochSimulator::AuditAllgatherFromEngine), and their counters. The rows
// themselves never pass through it: the engine's sender writes them straight
// into the receiver's slot rows once Transmit succeeds.

#ifndef DGCL_RUNTIME_TRANSPORT_H_
#define DGCL_RUNTIME_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/compiled_plan.h"
#include "common/status.h"
#include "topology/topology.h"

namespace dgcl {

enum class Transport : uint8_t {
  kCudaVirtualMemory,  // same socket: direct peer access
  kPinnedHostMemory,   // same machine, different socket: DMA via host buffer
  kNic,                // different machine: helper thread + NIC (RDMA if IB)
};

// Interned, static-lifetime name ("cuda-vm" / "pinned-host" / "nic") — safe
// to hand to the telemetry recorder as a span category.
const char* TransportName(Transport transport);

Transport SelectTransport(const Topology& topo, DeviceId src, DeviceId dst);

// Forces the transport for one ordered device pair (ablations: e.g. route
// same-socket traffic through the pinned-host path to price NVLink loss).
// Only *downgrades* are physical: a cross-machine pair must stay kNic.
struct TransportOverride {
  DeviceId src = 0;
  DeviceId dst = 0;
  Transport transport = Transport::kNic;
};

// SelectTransport plus overrides; the last matching override wins.
Transport ResolveTransport(const Topology& topo, DeviceId src, DeviceId dst,
                           std::span<const TransportOverride> overrides);

// Checks every override against the topology: ids in range, src != dst, and
// cross-machine pairs not forced onto a shared-memory transport.
Status ValidateTransportOverrides(const Topology& topo,
                                  std::span<const TransportOverride> overrides);

// Emulated-wire faults, applied on Connection::Transmit. By default only the
// NIC path is faulty (the paper's cross-machine transport is the one with a
// real wire under it); `all_transports` widens the blast radius for tests on
// single-machine topologies. All draws are counter-hashed from `seed`, so a
// fault sequence is deterministic per connection regardless of thread
// scheduling.
struct FaultInjection {
  uint32_t latency_micros = 0;  // fixed extra latency per transmit attempt
  uint32_t jitter_micros = 0;   // + uniform [0, jitter] per attempt
  double drop_rate = 0.0;       // P(attempt dropped and retried), in [0, 1]
  uint64_t seed = 0x5eed;
  bool all_transports = false;  // false: faults hit kNic connections only
  // Device that never participates in a pass (a killed peer). Waits on it
  // time out and the collective fails with a Status instead of hanging.
  uint32_t dead_device = kInvalidId;
  // First engine pass (counting every pass from 0: a Forward or Backward
  // call runs one, a program as many as it asks for) at which `dead_device`
  // dies; earlier passes run healthy. Models a mid-epoch kill.
  // A DistributedTrainer epoch of an L-layer model runs 2L-2 passes
  // (DistributedTrainer::PassesPerEpoch): the forward allgathers of layers
  // 1..L-1, then the backward allgathers of layers L-1..1. Layer 0 exchanges
  // nothing: its input is gathered once when the trainer is created, and its
  // input gradient is never formed. With L = 2, epoch e runs passes 2e
  // (layer 1 forward) and 2e+1 (layer 1 backward).
  uint32_t dead_from_pass = 0;

  Status Validate() const;
};

// Retry/timeout/emulation policy shared by every connection of an engine.
struct TransportPolicy {
  // Bounded retry with exponential backoff for dropped transmits: attempt k
  // backs off base * 2^k micros, capped at `backoff_max_micros`. A transmit
  // that exhausts `max_retries` returns kUnavailable.
  uint32_t max_retries = 8;
  uint32_t backoff_base_micros = 50;
  uint32_t backoff_max_micros = 5000;
  // Deadline for every coordination wait (ready flag before a send, done
  // flag before a receive), kept by the clock; at most one day. 0 waits
  // forever; the default is a safety net that turns a dead peer into a
  // kDeadlineExceeded Status instead of an endless wait.
  uint64_t wait_timeout_micros = 30'000'000;
  // Wall-clock calibration: each transmit additionally waits
  // bytes / bottleneck_bandwidth * time_scale, so recorded stage spans become
  // comparable (after dividing by time_scale) to the cost model's per-stage
  // predictions.
  bool emulate_bandwidth = false;
  double bandwidth_time_scale = 1.0;

  Status Validate() const;
};

// One device pair's channel. Created by ConnectionTable from the transport
// decision table; holds the per-connection fault/retry state. Transmit may
// be called by one thread at a time per connection (the pair's sender for
// the current pass); stats are atomics and readable from any thread.
class Connection {
 public:
  struct Stats {
    uint64_t transmits = 0;       // successful Transmit calls
    uint64_t attempts = 0;        // wire attempts (>= transmits when drops hit)
    uint64_t retries = 0;         // attempts - first tries
    uint64_t drops_injected = 0;  // attempts eaten by fault injection
    uint64_t emulated_wait_ns = 0;  // injected latency + bandwidth emulation
  };

  Connection(DeviceId src, DeviceId dst, Transport transport, LinkId link,
             double bottleneck_gbps, const TransportPolicy& policy, const FaultInjection& faults);

  // Emulates putting `bytes` on the wire: injected latency/jitter, bandwidth
  // emulation, and drop draws with bounded exponential backoff. Returns
  // kUnavailable once retries are exhausted. The actual payload copy is the
  // caller's (it needs the engine's slot tables); a transmit that fails must
  // not be followed by the copy.
  Status Transmit(uint64_t bytes);

  DeviceId src() const { return src_; }
  DeviceId dst() const { return dst_; }
  Transport transport() const { return transport_; }
  // Interned transport name; usable as a telemetry category.
  const char* name() const { return TransportName(transport_); }
  LinkId link() const { return link_; }
  double bottleneck_gbps() const { return bottleneck_gbps_; }
  bool faulty() const { return faults_apply_; }

  Stats stats() const;

 private:
  DeviceId src_;
  DeviceId dst_;
  Transport transport_;
  LinkId link_;
  double bottleneck_gbps_;
  TransportPolicy policy_;
  FaultInjection faults_;
  bool faults_apply_;

  std::atomic<uint64_t> transmits_{0};
  std::atomic<uint64_t> attempts_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> drops_injected_{0};
  std::atomic<uint64_t> emulated_wait_ns_{0};
};

// The engine's connection registry: one Connection per ordered device pair
// that appears in the plan (forward direction; the backward pass reuses the
// same connection with the roles reversed, as both directions of a pair share
// the physical medium here).
class ConnectionTable {
 public:
  ConnectionTable() = default;

  static Result<ConnectionTable> Build(const Topology& topo, const CompiledPlan& plan,
                                       const TransportPolicy& policy,
                                       const FaultInjection& faults,
                                       std::span<const TransportOverride> overrides);

  // The connection an op (forward direction src -> dst) is routed over.
  Connection& ForOp(uint32_t op_id) { return *connections_[op_conn_[op_id]]; }
  const Connection& ForOp(uint32_t op_id) const { return *connections_[op_conn_[op_id]]; }

  size_t size() const { return connections_.size(); }
  const Connection& connection(size_t i) const { return *connections_[i]; }

  // nullptr when the ordered pair carries no traffic in the plan.
  const Connection* Find(DeviceId src, DeviceId dst) const;
  // Non-const lookup for callers that Transmit outside an engine pass (the
  // serving tier's remote-feature fetches). Same single-sender-per-connection
  // contract as engine use; such callers serialize externally.
  Connection* FindMutable(DeviceId src, DeviceId dst);

 private:
  std::vector<std::unique_ptr<Connection>> connections_;  // sorted by (src, dst)
  std::vector<uint32_t> op_conn_;  // op id -> index into connections_
};

}  // namespace dgcl

#endif  // DGCL_RUNTIME_TRANSPORT_H_
