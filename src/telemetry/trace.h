// Low-overhead tracing and metrics (the observability layer of the stack).
//
// The paper's methodology is measurement-first: profiled link speeds
// (Table 1), per-link-type traffic breakdowns (Table 2) and a cost model
// validated against observed times (Figure 10). This subsystem gives the
// reproduction the same visibility at runtime: per-thread lock-free
// ring-buffer recorders collect scoped spans and named counters with
// steady-clock timestamps, a process-wide registry merges them into a
// Trace, and exporters (chrome_trace.h) turn the result into Chrome-trace/
// Perfetto JSON or a compact text summary.
//
// Design rules:
//  * The record path is lock-free and allocation-free: a single-writer ring
//    of fixed-width slots per thread, published with one release store. All
//    slot words are relaxed atomics, so a concurrent Collect() is data-race
//    free (TSan-clean); entries that may have been overwritten mid-read are
//    discarded, never torn.
//  * Recording is double-gated: compile-time via DGCL_TELEMETRY_ENABLED
//    (the DGCL_TSPAN*/DGCL_TCOUNT* macros expand to nothing when 0, so
//    instrumented paths cost literally zero) and runtime via
//    Telemetry::SetEnabled (one relaxed atomic load when compiled in).
//  * Name/category/arg-key strings must have static lifetime (string
//    literals or interned tables like LinkTypeName); the ring stores raw
//    pointers.
//  * The ring keeps the *last* capacity events per thread; older events are
//    dropped and counted, never blocked on — tracing may slow the traced
//    code, never stall it.

#ifndef DGCL_TELEMETRY_TRACE_H_
#define DGCL_TELEMETRY_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dgcl {
namespace telemetry {

enum class TraceEventKind : uint8_t { kSpan = 0, kCounter = 1, kInstant = 2 };

// A collected (owning) trace event. The in-ring representation is a packed
// word array; Collect()/ReadChromeTrace materialize this form.
struct TraceEvent {
  std::string name;
  std::string category;
  TraceEventKind kind = TraceEventKind::kSpan;
  uint32_t tid = 0;        // telemetry thread id (registration order, from 1)
  uint64_t start_ns = 0;   // steady-clock
  uint64_t dur_ns = 0;     // spans only
  double value = 0.0;      // counters only
  // Up to three integer args ("bytes", "stage", "peer", ...). Empty key = unset.
  std::array<std::string, 3> arg_key;
  std::array<uint64_t, 3> arg_val = {0, 0, 0};

  bool operator==(const TraceEvent&) const = default;
};

// A merged recording: events from all threads, sorted by (start_ns, tid).
struct Trace {
  std::vector<TraceEvent> events;
  uint64_t dropped_events = 0;  // ring overwrites across all recorders
};

// Per-thread single-writer ring buffer. Record* may only be called from the
// owning thread; Drain may be called from any thread concurrently with the
// writer (entries at risk of overwrite are discarded, see header comment).
class TraceRecorder {
 public:
  // `capacity` is rounded up to a power of two (minimum 8).
  TraceRecorder(uint32_t tid, size_t capacity);

  void RecordSpan(const char* category, const char* name, uint64_t start_ns, uint64_t dur_ns,
                  const char* key0 = nullptr, uint64_t val0 = 0, const char* key1 = nullptr,
                  uint64_t val1 = 0, const char* key2 = nullptr, uint64_t val2 = 0);
  void RecordCounter(const char* category, const char* name, uint64_t ts_ns, double value,
                     const char* key0 = nullptr, uint64_t val0 = 0);
  void RecordInstant(const char* category, const char* name, uint64_t ts_ns);

  // Appends the currently retrievable events (oldest first) to `out`.
  void Drain(std::vector<TraceEvent>& out) const;

  uint32_t tid() const { return tid_; }
  size_t capacity() const { return capacity_; }
  // Total events ever recorded / lost to ring wraparound, as of now.
  uint64_t recorded() const { return head_.load(std::memory_order_acquire); }
  uint64_t dropped() const;

 private:
  void Push(const char* category, const char* name, TraceEventKind kind, uint64_t start_ns,
            uint64_t dur_ns, uint64_t value_bits, const char* key0, uint64_t val0,
            const char* key1, uint64_t val1, const char* key2, uint64_t val2);

  static constexpr size_t kWordsPerEvent = 12;

  uint32_t tid_;
  size_t capacity_;  // power of two
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
  // Seqlock pair: reserve_ advances BEFORE a slot's words are overwritten
  // (each with a release store), head_ after. A reader that copied any word
  // of an in-progress overwrite (acquire load) is guaranteed to observe the
  // advanced reserve_ and discards the entry; see Drain.
  std::atomic<uint64_t> reserve_{0};
  std::atomic<uint64_t> head_{0};  // next event index; published with release
};

// Process-wide registry: hands each thread its recorder, merges them into a
// Trace, and owns the global enable flag. Recorders outlive their threads
// (pool workers may exit before collection) and are only reclaimed by
// Reset().
class Telemetry {
 public:
  static Telemetry& Get();

  // Runtime gate. Record paths are no-ops while disabled (one relaxed load).
  static bool Enabled() { return Get().enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  // Ring capacity (events) for recorders created after the call.
  void SetRecorderCapacity(size_t capacity);
  size_t recorder_capacity() const;

  // The calling thread's recorder, created and registered on first use.
  // Stable until Reset().
  TraceRecorder& RecorderForThisThread();

  // Merges all recorders into one sorted trace. Safe concurrently with
  // recording (in-flight entries may be missed or dropped, never torn).
  Trace Collect() const;

  // Drops every recorder and its events. Not safe concurrently with
  // recording; intended for test isolation and between bench repetitions.
  void Reset();

  // Steady-clock timestamp used for every event.
  static uint64_t NowNs();

 private:
  Telemetry() = default;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceRecorder>> recorders_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> generation_{0};  // bumped by Reset; invalidates caches
  size_t capacity_ = 1 << 16;
};

// RAII span: captures the start time at construction and records on
// destruction. Inert (and free of clock reads) when telemetry is disabled at
// runtime. All strings must have static lifetime.
class ScopedSpan {
 public:
  // Selects whether a span records at all (DGCL_TSPAN1_IF).
  struct When {
    bool record;
  };

  ScopedSpan(const char* category, const char* name, const char* key0 = nullptr,
             uint64_t val0 = 0, const char* key1 = nullptr, uint64_t val1 = 0,
             const char* key2 = nullptr, uint64_t val2 = 0)
      : ScopedSpan(When{true}, category, name, key0, val0, key1, val1, key2, val2) {}

  ScopedSpan(When when, const char* category, const char* name, const char* key0 = nullptr,
             uint64_t val0 = 0, const char* key1 = nullptr, uint64_t val1 = 0,
             const char* key2 = nullptr, uint64_t val2 = 0)
      : active_(when.record && Telemetry::Enabled()) {
    if (active_) {
      category_ = category;
      name_ = name;
      key0_ = key0;
      val0_ = val0;
      key1_ = key1;
      val1_ = val1;
      key2_ = key2;
      val2_ = val2;
      start_ns_ = Telemetry::NowNs();
    }
  }

  ~ScopedSpan() {
    if (active_) {
      const uint64_t end_ns = Telemetry::NowNs();
      Telemetry::Get().RecorderForThisThread().RecordSpan(
          category_, name_, start_ns_, end_ns - start_ns_, key0_, val0_, key1_, val1_, key2_,
          val2_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  const char* key0_ = nullptr;
  uint64_t val0_ = 0;
  const char* key1_ = nullptr;
  uint64_t val1_ = 0;
  const char* key2_ = nullptr;
  uint64_t val2_ = 0;
  uint64_t start_ns_ = 0;
};

inline void Counter(const char* category, const char* name, double value,
                    const char* key0 = nullptr, uint64_t val0 = 0) {
  if (Telemetry::Enabled()) {
    Telemetry::Get().RecorderForThisThread().RecordCounter(category, name, Telemetry::NowNs(),
                                                           value, key0, val0);
  }
}

}  // namespace telemetry
}  // namespace dgcl

// Compile-time gate: -DDGCL_TELEMETRY_ENABLED=0 (CMake option DGCL_TELEMETRY
// OFF) turns every instrumentation macro into nothing — argument expressions
// are not even evaluated. The telemetry library itself always compiles.
#ifndef DGCL_TELEMETRY_ENABLED
#define DGCL_TELEMETRY_ENABLED 1
#endif

#define DGCL_TELEMETRY_CONCAT_INNER_(a, b) a##b
#define DGCL_TELEMETRY_CONCAT_(a, b) DGCL_TELEMETRY_CONCAT_INNER_(a, b)

#if DGCL_TELEMETRY_ENABLED
// Scoped span over the rest of the enclosing block.
#define DGCL_TSPAN(cat, name) \
  ::dgcl::telemetry::ScopedSpan DGCL_TELEMETRY_CONCAT_(_dgcl_tspan_, __LINE__)(cat, name)
#define DGCL_TSPAN1(cat, name, k0, v0)                                       \
  ::dgcl::telemetry::ScopedSpan DGCL_TELEMETRY_CONCAT_(_dgcl_tspan_, __LINE__)( \
      cat, name, k0, static_cast<uint64_t>(v0))
#define DGCL_TSPAN2(cat, name, k0, v0, k1, v1)                               \
  ::dgcl::telemetry::ScopedSpan DGCL_TELEMETRY_CONCAT_(_dgcl_tspan_, __LINE__)( \
      cat, name, k0, static_cast<uint64_t>(v0), k1, static_cast<uint64_t>(v1))
#define DGCL_TSPAN3(cat, name, k0, v0, k1, v1, k2, v2)                          \
  ::dgcl::telemetry::ScopedSpan DGCL_TELEMETRY_CONCAT_(_dgcl_tspan_, __LINE__)( \
      cat, name, k0, static_cast<uint64_t>(v0), k1, static_cast<uint64_t>(v1),  \
      k2, static_cast<uint64_t>(v2))
// DGCL_TSPAN1 that records only when `cond` holds, e.g. on one of several
// threads running the same code.
#define DGCL_TSPAN1_IF(cond, cat, name, k0, v0)                              \
  ::dgcl::telemetry::ScopedSpan DGCL_TELEMETRY_CONCAT_(_dgcl_tspan_, __LINE__)( \
      ::dgcl::telemetry::ScopedSpan::When{cond}, cat, name, k0, static_cast<uint64_t>(v0))
// Named counter sample (a gauge; the exporter keeps every sample).
#define DGCL_TCOUNT(cat, name, value) \
  ::dgcl::telemetry::Counter(cat, name, static_cast<double>(value))
#define DGCL_TCOUNT1(cat, name, value, k0, v0)                          \
  ::dgcl::telemetry::Counter(cat, name, static_cast<double>(value), k0, \
                             static_cast<uint64_t>(v0))
#else
#define DGCL_TSPAN(cat, name) \
  do {                        \
  } while (0)
#define DGCL_TSPAN1(cat, name, k0, v0) \
  do {                                 \
  } while (0)
#define DGCL_TSPAN2(cat, name, k0, v0, k1, v1) \
  do {                                         \
  } while (0)
#define DGCL_TSPAN3(cat, name, k0, v0, k1, v1, k2, v2) \
  do {                                                 \
  } while (0)
#define DGCL_TSPAN1_IF(cond, cat, name, k0, v0) \
  do {                                          \
  } while (0)
#define DGCL_TCOUNT(cat, name, value) \
  do {                                \
  } while (0)
#define DGCL_TCOUNT1(cat, name, value, k0, v0) \
  do {                                         \
  } while (0)
#endif

#endif  // DGCL_TELEMETRY_TRACE_H_
