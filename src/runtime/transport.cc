#include "runtime/transport.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/logging.h"

namespace dgcl {
namespace {

// SplitMix64: the per-connection fault stream. Counter-hashed (not stateful)
// so draws depend only on (seed, pair, sequence, salt) — deterministic under
// any thread schedule.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Hash01(uint64_t seed, uint64_t a, uint64_t b, uint64_t salt) {
  const uint64_t h = Mix64(seed ^ Mix64(a ^ Mix64(b ^ salt)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
}

// Waits `ns` of wall clock. Short waits spin on the steady clock (sleep_for
// granularity is tens of microseconds); longer ones sleep so an emulated
// transfer releases the core to the other device threads.
void PreciseWait(uint64_t ns) {
  if (ns == 0) {
    return;
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  if (ns >= 50'000) {
    std::this_thread::sleep_until(deadline);
    return;
  }
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

}  // namespace

const char* TransportName(Transport transport) {
  switch (transport) {
    case Transport::kCudaVirtualMemory:
      return "cuda-vm";
    case Transport::kPinnedHostMemory:
      return "pinned-host";
    case Transport::kNic:
      return "nic";
  }
  return "?";
}

Transport SelectTransport(const Topology& topo, DeviceId src, DeviceId dst) {
  DGCL_CHECK_LT(src, topo.num_devices());
  DGCL_CHECK_LT(dst, topo.num_devices());
  const Device& a = topo.device(src);
  const Device& b = topo.device(dst);
  if (a.machine != b.machine) {
    return Transport::kNic;
  }
  if (a.socket != b.socket) {
    return Transport::kPinnedHostMemory;
  }
  return Transport::kCudaVirtualMemory;
}

Transport ResolveTransport(const Topology& topo, DeviceId src, DeviceId dst,
                           std::span<const TransportOverride> overrides) {
  Transport t = SelectTransport(topo, src, dst);
  for (const TransportOverride& o : overrides) {
    if (o.src == src && o.dst == dst) {
      t = o.transport;
    }
  }
  return t;
}

Status ValidateTransportOverrides(const Topology& topo,
                                  std::span<const TransportOverride> overrides) {
  for (const TransportOverride& o : overrides) {
    if (o.src >= topo.num_devices() || o.dst >= topo.num_devices()) {
      return Status::InvalidArgument("transport override references device out of range");
    }
    if (o.src == o.dst) {
      return Status::InvalidArgument("transport override for a device with itself");
    }
    if (topo.device(o.src).machine != topo.device(o.dst).machine &&
        o.transport != Transport::kNic) {
      return Status::InvalidArgument(
          "cross-machine pair cannot be forced onto a shared-memory transport");
    }
  }
  return Status::Ok();
}

Status FaultInjection::Validate() const {
  if (!(drop_rate >= 0.0 && drop_rate <= 1.0)) {
    return Status::InvalidArgument("fault drop_rate must be in [0, 1]");
  }
  if (latency_micros > 10'000'000 || jitter_micros > 10'000'000) {
    return Status::InvalidArgument("injected latency/jitter above 10 s is surely a typo");
  }
  return Status::Ok();
}

Status TransportPolicy::Validate() const {
  if (backoff_max_micros < backoff_base_micros) {
    return Status::InvalidArgument("backoff_max_micros below backoff_base_micros");
  }
  if (!(bandwidth_time_scale > 0.0) || !std::isfinite(bandwidth_time_scale)) {
    return Status::InvalidArgument("bandwidth_time_scale must be positive and finite");
  }
  if (wait_timeout_micros > 86'400'000'000) {  // also keeps `now + timeout` from overflowing
    return Status::InvalidArgument(
        "wait_timeout_micros above one day is surely a typo (0 waits forever)");
  }
  return Status::Ok();
}

Connection::Connection(DeviceId src, DeviceId dst, Transport transport, LinkId link,
                       double bottleneck_gbps, const TransportPolicy& policy,
                       const FaultInjection& faults)
    : src_(src),
      dst_(dst),
      transport_(transport),
      link_(link),
      bottleneck_gbps_(bottleneck_gbps),
      policy_(policy),
      faults_(faults),
      faults_apply_(faults.all_transports || transport == Transport::kNic) {}

Status Connection::Transmit(uint64_t bytes) {
  const bool faulty = faults_apply_ && (faults_.latency_micros > 0 || faults_.jitter_micros > 0 ||
                                        faults_.drop_rate > 0.0);
  const bool emulate = policy_.emulate_bandwidth && bottleneck_gbps_ > 0.0;
  if (!faulty && !emulate) {
    // The in-process shared-memory fast path: the payload copy is the wire.
    transmits_.fetch_add(1, std::memory_order_relaxed);
    attempts_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }

  const uint64_t pair_key = (static_cast<uint64_t>(src_) << 32) | dst_;
  const uint64_t seq = transmits_.load(std::memory_order_relaxed);
  uint64_t wire_ns = 0;
  if (emulate) {
    wire_ns = static_cast<uint64_t>(static_cast<double>(bytes) / (bottleneck_gbps_ * 1e9) *
                                    policy_.bandwidth_time_scale * 1e9);
  }
  for (uint32_t attempt = 0; attempt <= policy_.max_retries; ++attempt) {
    attempts_.fetch_add(1, std::memory_order_relaxed);
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t backoff = std::min<uint64_t>(
          static_cast<uint64_t>(policy_.backoff_base_micros) << (attempt - 1),
          policy_.backoff_max_micros);
      PreciseWait(backoff * 1000);
    }
    uint64_t attempt_ns = wire_ns;
    if (faulty) {
      attempt_ns += static_cast<uint64_t>(faults_.latency_micros) * 1000;
      if (faults_.jitter_micros > 0) {
        attempt_ns += static_cast<uint64_t>(
            Hash01(faults_.seed, pair_key, seq * 64 + attempt, /*salt=*/1) *
            (static_cast<double>(faults_.jitter_micros) * 1000.0));
      }
    }
    PreciseWait(attempt_ns);
    emulated_wait_ns_.fetch_add(attempt_ns, std::memory_order_relaxed);
    if (faulty && faults_.drop_rate > 0.0 &&
        Hash01(faults_.seed, pair_key, seq * 64 + attempt, /*salt=*/2) < faults_.drop_rate) {
      drops_injected_.fetch_add(1, std::memory_order_relaxed);
      continue;  // dropped on the emulated wire; back off and resend
    }
    transmits_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  return Status::Unavailable("transmit " + std::string(name()) + " " + std::to_string(src_) +
                             "->" + std::to_string(dst_) + " dropped " +
                             std::to_string(policy_.max_retries + 1) +
                             " attempts; retries exhausted");
}

Connection::Stats Connection::stats() const {
  Stats s;
  s.transmits = transmits_.load(std::memory_order_relaxed);
  s.attempts = attempts_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.drops_injected = drops_injected_.load(std::memory_order_relaxed);
  s.emulated_wait_ns = emulated_wait_ns_.load(std::memory_order_relaxed);
  return s;
}

Result<ConnectionTable> ConnectionTable::Build(const Topology& topo, const CompiledPlan& plan,
                                               const TransportPolicy& policy,
                                               const FaultInjection& faults,
                                               std::span<const TransportOverride> overrides) {
  DGCL_RETURN_IF_ERROR(policy.Validate());
  DGCL_RETURN_IF_ERROR(faults.Validate());
  DGCL_RETURN_IF_ERROR(ValidateTransportOverrides(topo, overrides));
  if (faults.dead_device != kInvalidId && faults.dead_device >= topo.num_devices()) {
    return Status::InvalidArgument("dead_device out of range");
  }

  ConnectionTable table;
  table.op_conn_.assign(plan.ops.size(), 0);

  // Deterministic connection order: sorted ordered pairs.
  std::vector<std::pair<DeviceId, DeviceId>> pairs;
  for (const TransferOp& op : plan.ops) {
    pairs.emplace_back(op.src, op.dst);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  for (const auto& [src, dst] : pairs) {
    const LinkId link = topo.LinkBetween(src, dst);
    const Transport transport = ResolveTransport(topo, src, dst, overrides);
    const double gbps = link == kInvalidId ? 0.0 : topo.LinkBottleneckGBps(link);
    table.connections_.push_back(
        std::make_unique<Connection>(src, dst, transport, link, gbps, policy, faults));
  }
  for (uint32_t i = 0; i < plan.ops.size(); ++i) {
    const TransferOp& op = plan.ops[i];
    const auto it = std::lower_bound(pairs.begin(), pairs.end(), std::make_pair(op.src, op.dst));
    table.op_conn_[i] = static_cast<uint32_t>(it - pairs.begin());
  }
  return table;
}

const Connection* ConnectionTable::Find(DeviceId src, DeviceId dst) const {
  const auto it = std::lower_bound(
      connections_.begin(), connections_.end(), std::make_pair(src, dst),
      [](const std::unique_ptr<Connection>& c, const std::pair<DeviceId, DeviceId>& key) {
        return std::make_pair(c->src(), c->dst()) < key;
      });
  if (it == connections_.end() || (*it)->src() != src || (*it)->dst() != dst) {
    return nullptr;
  }
  return it->get();
}

Connection* ConnectionTable::FindMutable(DeviceId src, DeviceId dst) {
  return const_cast<Connection*>(static_cast<const ConnectionTable*>(this)->Find(src, dst));
}

}  // namespace dgcl
