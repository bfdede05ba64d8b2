#include "runtime/allgather_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

// The status a device reports when it bails out of its waits because some
// *other* device failed first. Filtered out of the pass verdict unless it is
// all there is.
Status AbortedStatus() { return Status::Unavailable("pass aborted by peer failure"); }

bool IsAborted(const Status& s) {
  return s.code() == StatusCode::kUnavailable && s.message() == "pass aborted by peer failure";
}

// Span category for a transfer: the link type of its bottleneck hop
// (LinkTypeName returns interned strings, as the recorder requires).
const char* LinkCategory(const Topology& topo, LinkId link) {
  const Link& l = topo.link(link);
  if (l.hops.empty()) {
    return "local";
  }
  ConnId slowest = l.hops[0];
  for (ConnId hop : l.hops) {
    if (topo.connection(hop).bandwidth_gbps < topo.connection(slowest).bandwidth_gbps) {
      slowest = hop;
    }
  }
  return LinkTypeName(topo.connection(slowest).type);
}

// Spins (yielding the core) until `ready()` holds or `micros` elapse;
// returns whether it holds.
template <typename Ready>
bool SpinFor(Ready&& ready, uint32_t micros) {
  if (ready() || micros == 0) {
    return ready();
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(micros);
  for (uint32_t spins = 1;; ++spins) {
    if ((spins & 0x3f) == 0 && std::chrono::steady_clock::now() >= deadline) {
      return ready();
    }
    std::this_thread::yield();
    if (ready()) {
      return true;
    }
  }
}

// How long a device thread keeps spinning for the next program before it
// parks. Parked threads woken together start up to a scheduler quantum apart
// (milliseconds on a busy host), so a training loop's back-to-back epochs
// must find the threads still spinning.
constexpr uint32_t kSpinBeforeParkMicros = 2000;

// How long a flag wait spins before it parks: parked, it leaves its core to
// the peer it waits for when threads outnumber cores.
constexpr auto kFlagSpin = std::chrono::microseconds(2);

constexpr uint32_t kNoPass = kInvalidId;

// rows[d] x dim matrices whose storage is reserved here but not yet filled:
// Forward and Backward allocate on the calling thread, where that thread's
// freed memory can be reused, and let each device fill its own in parallel.
std::vector<EmbeddingMatrix> ReserveMatrices(const std::vector<uint32_t>& rows, uint32_t dim) {
  std::vector<EmbeddingMatrix> out(rows.size());
  for (size_t d = 0; d < rows.size(); ++d) {
    out[d].rows = rows[d];
    out[d].dim = dim;
    out[d].data.reserve(static_cast<size_t>(rows[d]) * dim);
  }
  return out;
}

}  // namespace

// The engine's device threads: Run(body) runs body(0) on the calling thread
// and body(d) on persistent thread d for every other device, and returns
// once every call has returned. Device d's work therefore always runs on the
// same thread: nothing hops between cores, and the matrices a device
// allocates stay in one thread's malloc arena. An exception thrown by a body
// is rethrown by Run on the calling thread after every body has returned.
class DeviceThreads {
 public:
  explicit DeviceThreads(uint32_t devices) {
    threads_.reserve(devices > 0 ? devices - 1 : 0);
    for (uint32_t d = 1; d < devices; ++d) {
      threads_.emplace_back([this, d] { Loop(d); });
    }
  }
  DeviceThreads(const DeviceThreads&) = delete;  // the threads hold `this`
  DeviceThreads& operator=(const DeviceThreads&) = delete;

  ~DeviceThreads() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      generation_.fetch_add(1, std::memory_order_release);
    }
    start_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  void Run(const std::function<void(uint32_t)>& body) {
    body_ = &body;
    running_.store(static_cast<uint32_t>(threads_.size()), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      generation_.fetch_add(1, std::memory_order_release);
    }
    start_.notify_all();
    std::exception_ptr error;
    try {
      body(0);
    } catch (...) {
      error = std::current_exception();
    }
    // Park at once: a caller spinning here takes a core from the devices
    // still at work when there are more threads than cores.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [this] { return running_.load(std::memory_order_acquire) == 0; });
    }
    body_ = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error == nullptr) {
        error = error_;
      }
      error_ = nullptr;
    }
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }

 private:
  void Loop(uint32_t device) {
    uint64_t seen = 0;
    while (true) {
      auto started = [&] { return generation_.load(std::memory_order_acquire) != seen; };
      // Spin only between programs; a fresh thread parks at once.
      if (!SpinFor(started, seen == 0 ? 0 : kSpinBeforeParkMicros)) {
        std::unique_lock<std::mutex> lock(mutex_);
        start_.wait(lock, started);
      }
      seen = generation_.load(std::memory_order_acquire);
      if (stop_) {
        return;
      }
      try {
        (*body_)(device);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error_ == nullptr) {
          error_ = std::current_exception();
        }
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          done_.notify_one();
        }
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  // Bumped (release, under mutex_) once per Run and once to stop; body_ and
  // stop_ are written before the bump and read after observing it.
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint32_t> running_{0};  // threads still inside the current body
  const std::function<void(uint32_t)>* body_ = nullptr;
  bool stop_ = false;
  std::exception_ptr error_;          // first exception of a thread's body (mutex_)
  std::vector<std::thread> threads_;  // last: started once the state above exists
};

// Shared flag state for one program. Both flag arrays count across the
// program's passes, so neither is reset between passes.
struct ProgramState {
  // progress[d]: the §6.1 ready flag. Device d stores base_p on entering
  // pass p and base_p + r + 1 after its round r, with base_0 = 1 and
  // base_{p+1} = base_p + rounds_p + 1. A round-r sender of pass p waits for
  // base_p + r: the receiver's rows are this pass's, and every add of an
  // earlier round into them is done.
  std::unique_ptr<std::atomic<uint64_t>[]> progress;
  // rows[d]: device d's slot matrix in its current pass, set before base_p.
  std::vector<float*> rows;
  // op_done[op]: the §6.1 per-op done flag, p + 1 once the op's rows are
  // written in pass p (each op is sent once per pass).
  std::unique_ptr<std::atomic<uint64_t>[]> op_done;
  // Raised by the first failing device; every other device bails out of its
  // waits with the aborted sentinel instead of running to its own deadline,
  // whichever pass it is in.
  std::atomic<bool> abort{false};
  // Where waiters park, one per device: a wait parks on the device whose
  // flag store releases it (the receiver for a ready wait on its progress,
  // the sender for a done wait on its op), and that device wakes it.
  struct Parking {
    std::mutex mutex;
    std::condition_variable wake;
    std::atomic<uint32_t> parked{0};  // waiters asleep on `wake` or about to be
  };
  std::unique_ptr<Parking[]> parking;
  // Per device, written by that device's thread, read after the program.
  struct Outcome {
    Status status;
    uint32_t failed_pass = kNoPass;  // program pass that failed, if any
    uint32_t passes = 0;             // passes entered
  };
  std::vector<Outcome> outcome;
  // Suspicion evidence for the recovery protocol, read after the program:
  // named[d] = peers device d's waits timed out on (owner-thread-written);
  // self_dead = devices that self-reported death.
  std::vector<DeviceMask> named;
  std::atomic<DeviceMask> self_dead{0};
  const uint32_t num_devices;
  uint32_t dim = 0;
  // Engine-lifetime index of the program's pass 0 (for
  // FaultInjection::dead_from_pass).
  uint64_t first_pass = 0;

  ProgramState(uint32_t num_devices, const CompiledPlan& plan) : num_devices(num_devices) {
    parking = std::make_unique<Parking[]>(num_devices);
    progress = std::make_unique<std::atomic<uint64_t>[]>(num_devices);
    for (uint32_t d = 0; d < num_devices; ++d) {
      progress[d].store(0, std::memory_order_relaxed);
    }
    rows.assign(num_devices, nullptr);
    op_done = std::make_unique<std::atomic<uint64_t>[]>(plan.ops.size());
    for (uint32_t i = 0; i < plan.ops.size(); ++i) {
      op_done[i].store(0, std::memory_order_relaxed);
    }
    outcome.resize(num_devices);
    named.assign(num_devices, 0);
  }

  bool DeviceIsDead(uint32_t device, uint32_t pass, const EngineOptions& options) const {
    return device == options.faults.dead_device &&
           first_pass + pass >= options.faults.dead_from_pass;
  }

  // Raises the abort flag and wakes every parked waiter to see it. Taking
  // each mutex orders the flag before any waiter's next check of it.
  void Fail() {
    abort.store(true, std::memory_order_release);
    for (uint32_t d = 0; d < num_devices; ++d) {
      std::lock_guard<std::mutex> lock(parking[d].mutex);
      parking[d].wake.notify_all();
    }
  }

  // Device `device` waits until `flag`, which `writer` Publishes, reaches
  // `target`, a device fails the program, or `timeout_micros` (0: never)
  // pass by the clock. It spins for kFlagSpin, then parks on `writer`'s
  // condvar.
  Status Await(uint32_t device, uint32_t writer, const std::atomic<uint64_t>& flag,
               uint64_t target, uint64_t timeout_micros, const char* what, uint32_t stage) {
    auto ready = [&] { return flag.load(std::memory_order_seq_cst) >= target; };
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = start + std::chrono::microseconds(timeout_micros);
    Parking& p = parking[writer];
    std::unique_lock<std::mutex> lock(p.mutex, std::defer_lock);
    Status status;
    for (Clock::time_point now = start; !ready(); now = Clock::now()) {
      if (abort.load(std::memory_order_acquire)) {
        status = AbortedStatus();
        break;
      }
      if (timeout_micros != 0 && now >= deadline) {
        named[device] |= DeviceMask{1} << writer;
        status = Status::DeadlineExceeded(std::string(what) + " wait timed out on peer " +
                                          std::to_string(writer) + " at stage " +
                                          std::to_string(stage));
        break;
      }
      if (now < start + kFlagSpin) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
      } else if (!lock.owns_lock()) {
        // Count this waiter, then check `ready()` again before sleeping.
        // This increment, the flag store and the loads of both are seq_cst,
        // so they are totally ordered: either that check sees the writer's
        // flag, or the writer sees the count and notifies under the mutex,
        // which this thread gives up only inside wait.
        lock.lock();
        p.parked.fetch_add(1, std::memory_order_seq_cst);
      } else if (timeout_micros == 0) {
        p.wake.wait(lock);
      } else {
        p.wake.wait_until(lock, deadline);
      }
    }
    if (lock.owns_lock()) {
      p.parked.fetch_sub(1, std::memory_order_relaxed);
    }
    return status;
  }

  // Stores `value` into `flag`, a flag of `writer` that a waiter may be
  // parked on, and notifies only when one is.
  void Publish(std::atomic<uint64_t>& flag, uint64_t value, uint32_t writer) {
    flag.store(value, std::memory_order_seq_cst);
    Parking& p = parking[writer];
    if (p.parked.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(p.mutex);
      p.wake.notify_all();
    }
  }
};

Status EngineOptions::Validate() const {
  DGCL_RETURN_IF_ERROR(transport.Validate());
  DGCL_RETURN_IF_ERROR(faults.Validate());
  if (straggler_device != kInvalidId && straggler_micros > 10'000'000) {
    return Status::InvalidArgument("straggler delay above 10 s per stage is surely a typo");
  }
  return Status::Ok();
}

Result<AllgatherEngine> AllgatherEngine::Create(const CommRelation& relation, CompiledPlan plan,
                                                const Topology& topo, EngineOptions options) {
  DGCL_RETURN_IF_ERROR(options.Validate());
  DGCL_RETURN_IF_ERROR(ValidateCompiledPlan(plan, relation, topo));
  AllgatherEngine engine;
  engine.program_mutex_ = std::make_unique<std::mutex>();
  engine.relation_ = &relation;
  engine.topo_ = &topo;
  engine.plan_ = std::move(plan);
  engine.options_ = std::move(options);
  DGCL_ASSIGN_OR_RETURN(
      engine.connections_,
      ConnectionTable::Build(topo, engine.plan_, engine.options_.transport,
                             engine.options_.faults, engine.options_.transport_overrides));

  // Slot layout per device: locals, then required remotes, then any vertices
  // held only for forwarding.
  engine.slots_.resize(relation.num_devices);
  engine.slot_counts_.resize(relation.num_devices);
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    auto& map = engine.slots_[d];
    uint32_t next = 0;
    for (VertexId v : relation.local_vertices[d]) {
      map.emplace(v, next++);
    }
    for (VertexId v : relation.remote_vertices[d]) {
      map.emplace(v, next++);
    }
    engine.slot_counts_[d] = next;
  }
  // Each op's rows on both ends. The sender's slots are looked up once every
  // op has placed its rows; a validated plan is causal, so the sender holds
  // every vertex it sends.
  engine.op_slots_.resize(engine.plan_.ops.size());
  for (size_t i = 0; i < engine.plan_.ops.size(); ++i) {
    const TransferOp& op = engine.plan_.ops[i];
    auto& map = engine.slots_[op.dst];
    std::vector<uint32_t>& dst = engine.op_slots_[i].dst;
    dst.reserve(op.vertices.size());
    for (VertexId v : op.vertices) {
      const auto [it, placed] = map.try_emplace(v, engine.slot_counts_[op.dst]);
      if (placed) {
        ++engine.slot_counts_[op.dst];
      }
      dst.push_back(it->second);
    }
  }
  for (size_t i = 0; i < engine.plan_.ops.size(); ++i) {
    const TransferOp& op = engine.plan_.ops[i];
    std::vector<uint32_t>& src = engine.op_slots_[i].src;
    src.reserve(op.vertices.size());
    for (VertexId v : op.vertices) {
      src.push_back(engine.SlotOf(op.src, v));
      DGCL_CHECK_NE(src.back(), kInvalidId);
    }
  }

  // Rounds: forward, round r is stage r; backward runs the stages in reverse,
  // each split into its §6.2 sub-stages (at least one round per stage). A
  // vertex leaves a device for at most num_devices - 1 peers in a stage, so
  // no split needs a sub-stage beyond that; a plan file may claim any.
  const uint32_t num_stages = engine.plan_.num_stages;
  std::vector<uint32_t> substages(num_stages, 1);
  for (const TransferOp& op : engine.plan_.ops) {
    if (op.substage >= relation.num_devices) {
      return Status::InvalidArgument("op sub-stage " + std::to_string(op.substage) +
                                     " is not below the device count");
    }
    substages[op.stage] = std::max(substages[op.stage], op.substage + 1);
  }
  Rounds& fwd = engine.forward_;
  Rounds& bwd = engine.backward_;
  fwd.first_round.assign(1, 0);
  bwd.first_round.assign(1, 0);
  for (uint32_t step = 0; step < num_stages; ++step) {
    fwd.first_round.push_back(step + 1);
    bwd.first_round.push_back(bwd.first_round.back() + substages[num_stages - 1 - step]);
  }
  for (Rounds* rounds : {&fwd, &bwd}) {
    rounds->devices.assign(relation.num_devices,
                           {std::vector<std::vector<uint32_t>>(rounds->count()),
                            std::vector<std::vector<uint32_t>>(rounds->count())});
  }
  for (uint32_t i = 0; i < engine.plan_.ops.size(); ++i) {
    const TransferOp& op = engine.plan_.ops[i];
    fwd.devices[op.src].sends[op.stage].push_back(i);
    fwd.devices[op.dst].recvs[op.stage].push_back(i);
    // Backward, gradients flow dst -> src.
    const uint32_t r = bwd.first_round[num_stages - 1 - op.stage] + op.substage;
    bwd.devices[op.dst].sends[r].push_back(i);
    bwd.devices[op.src].recvs[r].push_back(i);
  }
  // A backward round's senders add into their receivers' rows at once, so
  // no two ops of a round may add into one row. (Forward, the plan check
  // above lets each vertex reach a device by one op only.)
  std::vector<uint32_t> added_in;  // per slot: 1 + the last round adding into it
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    added_in.assign(engine.slot_counts_[d], 0);
    for (uint32_t r = 0; r < bwd.count(); ++r) {
      for (uint32_t op_id : bwd.devices[d].recvs[r]) {
        for (uint32_t slot : engine.op_slots_[op_id].src) {
          if (std::exchange(added_in[slot], r + 1) == r + 1) {
            return Status::InvalidArgument(
                "two ops add into one row of device " + std::to_string(d) +
                " in one backward sub-stage; split the plan with AssignBackwardSubstages");
          }
        }
      }
    }
  }
  engine.threads_ = std::make_unique<DeviceThreads>(relation.num_devices);
  return engine;
}

AllgatherEngine::AllgatherEngine() = default;
AllgatherEngine::AllgatherEngine(AllgatherEngine&&) noexcept = default;
AllgatherEngine& AllgatherEngine::operator=(AllgatherEngine&&) noexcept = default;
AllgatherEngine::~AllgatherEngine() = default;

uint32_t AllgatherEngine::SlotOf(uint32_t device, VertexId v) const {
  auto it = slots_[device].find(v);
  return it == slots_[device].end() ? kInvalidId : it->second;
}

uint32_t AllgatherEngine::NumContractSlots(uint32_t device) const {
  return static_cast<uint32_t>(relation_->local_vertices[device].size() +
                               relation_->remote_vertices[device].size());
}

Status AllgatherEngine::RunDevice(uint32_t device, uint32_t pass, uint64_t base, bool backward,
                                  EmbeddingMatrix& mine, ProgramState& state) const {
  const uint32_t num_stages = plan_.num_stages;
  const uint32_t dim = state.dim;
  const size_t row_bytes = static_cast<size_t>(dim) * sizeof(float);
  const uint64_t timeout_micros = options_.transport.wait_timeout_micros;

  if (state.abort.load(std::memory_order_acquire)) {
    // A peer failed an earlier pass while this device computed.
    return AbortedStatus();
  }
  if (state.DeviceIsDead(device, pass, options_)) {
    // The killed peer: never enters the pass, so nobody writes into it and
    // it never sends. Its peers' deadline-bounded waits turn this into a
    // timeout Status for the whole collective.
    state.self_dead.fetch_or(DeviceMask{1} << device, std::memory_order_release);
    return Status::Unavailable("device " + std::to_string(device) + " is dead (injected fault)");
  }

  const Rounds& rounds = backward ? backward_ : forward_;
  const Rounds::DeviceOps& ops = rounds.devices[device];
  state.rows[device] = mine.data.data();
  state.Publish(state.progress[device], base, device);

  for (uint32_t step = 0; step < num_stages; ++step) {
    if (device == options_.straggler_device && options_.straggler_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(options_.straggler_micros));
    }
    const uint32_t stage = backward ? num_stages - 1 - step : step;
    const uint32_t first = rounds.first_round[step];
    const uint32_t end = rounds.first_round[step + 1];
    uint64_t stage_bytes = 0;
    if (telemetry::Telemetry::Enabled()) {
      for (uint32_t r = first; r < end; ++r) {
        for (uint32_t op_id : ops.sends[r]) {
          stage_bytes += plan_.ops[op_id].vertices.size() * row_bytes;
        }
      }
    }
    // Spans the whole stage on this device, waits included — the max over
    // devices is the stage's wall time (what CostAudit joins against the
    // cost model's per-stage prediction).
    DGCL_TSPAN2("runtime", backward ? "bwd.stage" : "fwd.stage", "stage", stage, "bytes",
                stage_bytes);
    for (uint32_t r = first; r < end; ++r) {
      for (uint32_t op_id : ops.sends[r]) {
        const TransferOp& op = plan_.ops[op_id];
        const uint32_t receiver = backward ? op.src : op.dst;
        Connection& conn = connections_.ForOp(op_id);
        Status status;
        {
          DGCL_TSPAN3(conn.name(), backward ? "bwd.wait.ready" : "fwd.wait.ready", "peer",
                      receiver, "stage", stage, "op", op_id);
          status = state.Await(device, receiver, state.progress[receiver], base + r,
                               timeout_micros, "ready-flag", stage);
        }
        if (status.ok()) {
          status = conn.Transmit(op.vertices.size() * row_bytes);
        }
        if (!status.ok()) {
          state.Fail();
          return status;
        }
        {
          DGCL_TSPAN2(LinkCategory(*topo_, op.link), backward ? "bwd.send" : "fwd.send", "stage",
                      stage, "bytes", op.vertices.size() * row_bytes);
          // No other op of this round writes these rows (Create checks it).
          const OpSlots& slots = op_slots_[op_id];
          const std::vector<uint32_t>& from = backward ? slots.dst : slots.src;
          const std::vector<uint32_t>& to = backward ? slots.src : slots.dst;
          float* theirs = state.rows[receiver];
          for (size_t i = 0; i < from.size(); ++i) {
            const float* in = mine.Row(from[i]);
            float* out = theirs + static_cast<size_t>(to[i]) * dim;
            if (backward) {
              for (uint32_t c = 0; c < dim; ++c) {
                out[c] += in[c];
              }
            } else {
              std::memcpy(out, in, row_bytes);
            }
          }
        }
        state.Publish(state.op_done[op_id], pass + 1, device);
      }
      // This device's rows of the round are its senders' to write.
      for (uint32_t op_id : ops.recvs[r]) {
        const TransferOp& op = plan_.ops[op_id];
        const uint32_t sender = backward ? op.dst : op.src;
        Status status;
        {
          DGCL_TSPAN3(connections_.ForOp(op_id).name(),
                      backward ? "bwd.wait.done" : "fwd.wait.done", "peer", sender, "stage", stage,
                      "op", op_id);
          status = state.Await(device, sender, state.op_done[op_id], pass + 1, timeout_micros,
                               "done-flag", stage);
        }
        if (!status.ok()) {
          state.Fail();
          return status;
        }
      }
      state.Publish(state.progress[device], base + r + 1, device);
    }
  }
  return Status::Ok();
}

Status DevicePasses::Forward(EmbeddingMatrix& slots) { return Pass(/*backward=*/false, slots); }

Status DevicePasses::Backward(EmbeddingMatrix& slots) { return Pass(/*backward=*/true, slots); }

Status DevicePasses::Pass(bool backward, EmbeddingMatrix& slots) {
  const uint32_t pass = next_pass_++;
  const uint64_t base = next_base_;
  next_base_ += (backward ? engine_.backward_ : engine_.forward_).count() + 1;
  ProgramState::Outcome& outcome = state_.outcome[device_];
  outcome.passes = next_pass_;
  Status status;
  if (slots.rows != engine_.NumSlots(device_) || slots.dim != state_.dim ||
      slots.data.size() != static_cast<size_t>(slots.rows) * slots.dim) {
    status = Status::InvalidArgument("device " + std::to_string(device_) +
                                     " slot matrix is not NumSlots x the program's dim");
  } else {
    status = engine_.RunDevice(device_, pass, base, backward, slots, state_);
  }
  if (!status.ok() && outcome.failed_pass == kNoPass) {
    outcome.failed_pass = pass;
    outcome.status = status;
    // A failed device aborts everyone else's waits — except the injected
    // dead peer, which must vanish *silently* so that its peers' deadlines
    // (not an abort broadcast) are what fail the collective.
    if (!state_.DeviceIsDead(device_, pass, engine_.options_)) {
      state_.Fail();
    }
  }
  return status;
}

Status AllgatherEngine::RunProgram(uint32_t dim, const DeviceProgram& program) const {
  if (dim == 0) {
    return Status::InvalidArgument("program embedding dim must be at least 1");
  }
  std::lock_guard<std::mutex> lock(*program_mutex_);
  ProgramState state(relation_->num_devices, plan_);
  state.dim = dim;
  state.first_pass = pass_count_;
  threads_->Run([&](uint32_t d) {
    DevicePasses passes(*this, state, d);
    Status status;
    try {
      status = program(passes);
    } catch (...) {
      state.Fail();
      throw;
    }
    ProgramState::Outcome& outcome = state.outcome[d];
    if (outcome.failed_pass == kNoPass) {
      // The program's own error, outside any pass: its peers must not wait
      // for passes it will never run.
      outcome.status = status;
      if (!status.ok()) {
        state.Fail();
      }
    }
  });
  return Verdict(state);
}

Status AllgatherEngine::Verdict(const ProgramState& state) const {
  // Program verdict: prefer a timeout (the injected-death signature), then
  // any root-cause error, and only report the aborted sentinel when it is all
  // there is. The failed pass is the first one a root cause failed in; peers
  // aborted in other passes (ahead of it, or still behind it) do not move it.
  Status verdict;
  uint32_t passes_run = 0;
  uint32_t root_pass = kNoPass;
  uint32_t any_pass = kNoPass;
  for (const ProgramState::Outcome& o : state.outcome) {
    passes_run = std::max(passes_run, o.passes);
    const Status& s = o.status;
    if (s.ok()) {
      continue;
    }
    if (o.failed_pass != kNoPass) {
      any_pass = std::min(any_pass, o.failed_pass);
      if (!IsAborted(s)) {
        root_pass = std::min(root_pass, o.failed_pass);
      }
    }
    if (verdict.code() == StatusCode::kDeadlineExceeded) {
      continue;
    }
    if (s.code() == StatusCode::kDeadlineExceeded || verdict.ok() ||
        (IsAborted(verdict) && !IsAborted(s))) {
      verdict = s;
    }
  }
  const uint32_t failed_pass = root_pass != kNoPass ? root_pass : any_pass;
  if (failed_pass == kNoPass) {
    // Every pass succeeded (a program may still have failed on its own).
    pass_count_ += passes_run;
    last_failure_.reset();
    return verdict;
  }
  pass_count_ += failed_pass + 1;
  // Suspect derivation for the recovery protocol: self-reported deaths are
  // certain; a device *named* by a timed-out wait is suspected only if it
  // never produced a status of its own (a named device that ran — even into
  // its own timeout — was just blocked downstream of the real failure and
  // stays innocent).
  DeviceMask named = 0;
  DeviceMask responders = 0;
  for (uint32_t d = 0; d < relation_->num_devices; ++d) {
    named |= state.named[d];
    const Status& s = state.outcome[d].status;
    if (s.ok() || s.code() == StatusCode::kDeadlineExceeded || IsAborted(s)) {
      responders |= DeviceMask{1} << d;
    }
  }
  const DeviceMask self_dead = state.self_dead.load(std::memory_order_acquire);
  last_failure_ = PassFailure{verdict, self_dead | (named & ~responders),
                              state.first_pass + failed_pass};
  return verdict;
}

std::optional<PassFailure> AllgatherEngine::last_failure() const {
  std::lock_guard<std::mutex> lock(*program_mutex_);
  return last_failure_;
}

uint64_t AllgatherEngine::pass_count() const {
  std::lock_guard<std::mutex> lock(*program_mutex_);
  return pass_count_;
}

Result<std::vector<EmbeddingMatrix>> AllgatherEngine::Forward(
    const std::vector<EmbeddingMatrix>& local) const {
  if (local.size() != relation_->num_devices) {
    return Status::InvalidArgument("one local matrix per device required");
  }
  uint32_t dim = 0;
  for (uint32_t d = 0; d < relation_->num_devices; ++d) {
    if (local[d].rows != relation_->local_vertices[d].size()) {
      return Status::InvalidArgument("local row count mismatch");
    }
    if (local[d].data.size() != static_cast<size_t>(local[d].rows) * local[d].dim) {
      return Status::InvalidArgument("device " + std::to_string(d) +
                                     " local data is not rows x dim floats");
    }
    if (local[d].rows > 0) {
      if (dim != 0 && local[d].dim != dim) {
        return Status::InvalidArgument("inconsistent embedding dim");
      }
      dim = local[d].dim;
    }
  }
  if (dim == 0) {
    return Status::InvalidArgument("no embeddings provided");
  }

  DGCL_TSPAN2("runtime", "fwd.pass", "devices", relation_->num_devices, "dim", dim);
  std::vector<EmbeddingMatrix> slots = ReserveMatrices(slot_counts_, dim);
  DGCL_RETURN_IF_ERROR(RunProgram(dim, [&](DevicePasses& passes) {
    const uint32_t d = passes.device();
    std::vector<float>& data = slots[d].data;
    data.assign(local[d].data.begin(),
                local[d].data.begin() + static_cast<size_t>(local[d].rows) * dim);
    data.resize(static_cast<size_t>(slot_counts_[d]) * dim);
    return passes.Forward(slots[d]);
  }));
  return slots;
}

Result<std::vector<EmbeddingMatrix>> AllgatherEngine::Backward(
    const std::vector<EmbeddingMatrix>& slot_grads) const {
  if (slot_grads.size() != relation_->num_devices) {
    return Status::InvalidArgument("one gradient matrix per device required");
  }
  uint32_t dim = 0;
  for (uint32_t d = 0; d < relation_->num_devices; ++d) {
    if (slot_grads[d].data.size() != static_cast<size_t>(slot_grads[d].rows) * slot_grads[d].dim) {
      return Status::InvalidArgument("device " + std::to_string(d) +
                                     " gradient data is not rows x dim floats");
    }
    if (slot_grads[d].rows > 0) {
      if (slot_grads[d].rows < NumContractSlots(d)) {
        return Status::InvalidArgument("gradient rows below local+remote slot count");
      }
      if (dim != 0 && slot_grads[d].dim != dim) {
        return Status::InvalidArgument("inconsistent gradient dim");
      }
      dim = slot_grads[d].dim;
    }
  }
  if (dim == 0) {
    return Status::InvalidArgument("no gradients provided");
  }

  DGCL_TSPAN2("runtime", "bwd.pass", "devices", relation_->num_devices, "dim", dim);
  std::vector<EmbeddingMatrix> slots = ReserveMatrices(slot_counts_, dim);
  std::vector<uint32_t> local_counts;
  for (const std::vector<VertexId>& locals : relation_->local_vertices) {
    local_counts.push_back(static_cast<uint32_t>(locals.size()));
  }
  std::vector<EmbeddingMatrix> grads = ReserveMatrices(local_counts, dim);
  DGCL_RETURN_IF_ERROR(RunProgram(dim, [&](DevicePasses& passes) {
    const uint32_t d = passes.device();
    std::vector<float>& data = slots[d].data;
    const size_t provided =
        std::min<size_t>(slot_grads[d].rows, slot_counts_[d]) * static_cast<size_t>(dim);
    data.assign(slot_grads[d].data.begin(), slot_grads[d].data.begin() + provided);
    data.resize(static_cast<size_t>(slot_counts_[d]) * dim);
    DGCL_RETURN_IF_ERROR(passes.Backward(slots[d]));
    grads[d].data.assign(data.begin(), data.begin() + static_cast<size_t>(local_counts[d]) * dim);
    return Status::Ok();
  }));
  return grads;
}

}  // namespace dgcl
