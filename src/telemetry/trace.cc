#include "telemetry/trace.h"

#include <algorithm>
#include <chrono>

namespace dgcl {
namespace telemetry {
namespace {

// Word layout of one ring slot. Pointers and doubles travel as uint64_t bits;
// kind and tid share the meta word.
enum SlotWord : size_t {
  kWordName = 0,
  kWordCategory = 1,
  kWordMeta = 2,  // kind (low 8 bits) | tid << 8
  kWordStart = 3,
  kWordDur = 4,
  kWordValue = 5,  // double bits
  kWordKey0 = 6,
  kWordVal0 = 7,
  kWordKey1 = 8,
  kWordVal1 = 9,
  kWordKey2 = 10,
  kWordVal2 = 11,
};

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

uint64_t PtrBits(const char* p) { return reinterpret_cast<uint64_t>(p); }
const char* BitsPtr(uint64_t b) { return reinterpret_cast<const char*>(b); }

double BitsToDouble(uint64_t b) {
  double d;
  static_assert(sizeof(d) == sizeof(b));
  __builtin_memcpy(&d, &b, sizeof(d));
  return d;
}

uint64_t DoubleToBits(double d) {
  uint64_t b;
  __builtin_memcpy(&b, &d, sizeof(b));
  return b;
}

}  // namespace

TraceRecorder::TraceRecorder(uint32_t tid, size_t capacity)
    : tid_(tid), capacity_(RoundUpPow2(capacity)) {
  words_ = std::make_unique<std::atomic<uint64_t>[]>(capacity_ * kWordsPerEvent);
  for (size_t i = 0; i < capacity_ * kWordsPerEvent; ++i) {
    words_[i].store(0, std::memory_order_relaxed);
  }
}

void TraceRecorder::Push(const char* category, const char* name, TraceEventKind kind,
                         uint64_t start_ns, uint64_t dur_ns, uint64_t value_bits,
                         const char* key0, uint64_t val0, const char* key1, uint64_t val1,
                         const char* key2, uint64_t val2) {
  const uint64_t index = head_.load(std::memory_order_relaxed);
  // Announce the overwrite before touching the slot: every word store below
  // is a release store, so a concurrent Drain whose acquire load reads any
  // of them also sees this reserve_ value and discards the slot's previous
  // occupant, event index - capacity. (Release stores and acquire loads,
  // not fences: ThreadSanitizer checks these, and on x86 they are plain
  // moves.)
  reserve_.store(index + 1, std::memory_order_relaxed);
  std::atomic<uint64_t>* slot = &words_[(index & (capacity_ - 1)) * kWordsPerEvent];
  slot[kWordName].store(PtrBits(name), std::memory_order_release);
  slot[kWordCategory].store(PtrBits(category), std::memory_order_release);
  slot[kWordMeta].store(static_cast<uint64_t>(kind) | (static_cast<uint64_t>(tid_) << 8),
                        std::memory_order_release);
  slot[kWordStart].store(start_ns, std::memory_order_release);
  slot[kWordDur].store(dur_ns, std::memory_order_release);
  slot[kWordValue].store(value_bits, std::memory_order_release);
  slot[kWordKey0].store(PtrBits(key0), std::memory_order_release);
  slot[kWordVal0].store(val0, std::memory_order_release);
  slot[kWordKey1].store(PtrBits(key1), std::memory_order_release);
  slot[kWordVal1].store(val1, std::memory_order_release);
  slot[kWordKey2].store(PtrBits(key2), std::memory_order_release);
  slot[kWordVal2].store(val2, std::memory_order_release);
  // Publish: a reader that observes head > index sees every word above.
  head_.store(index + 1, std::memory_order_release);
}

void TraceRecorder::RecordSpan(const char* category, const char* name, uint64_t start_ns,
                               uint64_t dur_ns, const char* key0, uint64_t val0,
                               const char* key1, uint64_t val1, const char* key2,
                               uint64_t val2) {
  Push(category, name, TraceEventKind::kSpan, start_ns, dur_ns, 0, key0, val0, key1, val1, key2,
       val2);
}

void TraceRecorder::RecordCounter(const char* category, const char* name, uint64_t ts_ns,
                                  double value, const char* key0, uint64_t val0) {
  Push(category, name, TraceEventKind::kCounter, ts_ns, 0, DoubleToBits(value), key0, val0,
       nullptr, 0, nullptr, 0);
}

void TraceRecorder::RecordInstant(const char* category, const char* name, uint64_t ts_ns) {
  Push(category, name, TraceEventKind::kInstant, ts_ns, 0, 0, nullptr, 0, nullptr, 0, nullptr, 0);
}

uint64_t TraceRecorder::dropped() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  return head > capacity_ ? head - capacity_ : 0;
}

void TraceRecorder::Drain(std::vector<TraceEvent>& out) const {
  // Snapshot-and-validate: copy candidate slots, then re-read the writer's
  // reserve cursor and keep only indices whose slot no overwrite can have
  // touched (index >= reserve_after - capacity). The writer advances
  // reserve_ before scribbling a slot with release stores, so if the copy
  // below read (acquire) even one word of an in-progress overwrite, the
  // subsequent reserve_ load observes that advance and the torn entry is
  // discarded — never emitted.
  const uint64_t head_before = head_.load(std::memory_order_acquire);
  const uint64_t first =
      head_before > capacity_ ? head_before - capacity_ : 0;

  struct RawEvent {
    uint64_t index;
    uint64_t words[kWordsPerEvent];
  };
  std::vector<RawEvent> raw;
  raw.reserve(head_before - first);
  for (uint64_t index = first; index < head_before; ++index) {
    RawEvent e;
    e.index = index;
    const std::atomic<uint64_t>* slot = &words_[(index & (capacity_ - 1)) * kWordsPerEvent];
    for (size_t w = 0; w < kWordsPerEvent; ++w) {
      e.words[w] = slot[w].load(std::memory_order_acquire);
    }
    raw.push_back(e);
  }
  const uint64_t reserve_after = reserve_.load(std::memory_order_relaxed);
  const uint64_t still_valid_from =
      reserve_after > capacity_ ? reserve_after - capacity_ : 0;

  for (const RawEvent& e : raw) {
    if (e.index < still_valid_from) continue;  // possibly overwritten mid-copy
    TraceEvent ev;
    const char* name = BitsPtr(e.words[kWordName]);
    const char* category = BitsPtr(e.words[kWordCategory]);
    ev.name = name != nullptr ? name : "";
    ev.category = category != nullptr ? category : "";
    ev.kind = static_cast<TraceEventKind>(e.words[kWordMeta] & 0xff);
    ev.tid = static_cast<uint32_t>(e.words[kWordMeta] >> 8);
    ev.start_ns = e.words[kWordStart];
    ev.dur_ns = e.words[kWordDur];
    ev.value = BitsToDouble(e.words[kWordValue]);
    const char* key0 = BitsPtr(e.words[kWordKey0]);
    const char* key1 = BitsPtr(e.words[kWordKey1]);
    const char* key2 = BitsPtr(e.words[kWordKey2]);
    if (key0 != nullptr) {
      ev.arg_key[0] = key0;
      ev.arg_val[0] = e.words[kWordVal0];
    }
    if (key1 != nullptr) {
      ev.arg_key[1] = key1;
      ev.arg_val[1] = e.words[kWordVal1];
    }
    if (key2 != nullptr) {
      ev.arg_key[2] = key2;
      ev.arg_val[2] = e.words[kWordVal2];
    }
    out.push_back(std::move(ev));
  }
}

Telemetry& Telemetry::Get() {
  static Telemetry* instance = new Telemetry();  // leaked: outlives all threads
  return *instance;
}

void Telemetry::SetRecorderCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity < 8 ? 8 : capacity;
}

size_t Telemetry::recorder_capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

TraceRecorder& Telemetry::RecorderForThisThread() {
  // Cache the recorder per thread, revalidated against the Reset()
  // generation so stale pointers are never dereferenced after a Reset.
  thread_local TraceRecorder* cached = nullptr;
  thread_local uint64_t cached_generation = ~uint64_t{0};
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  if (cached != nullptr && cached_generation == generation) return *cached;

  std::lock_guard<std::mutex> lock(mutex_);
  recorders_.push_back(std::make_unique<TraceRecorder>(
      static_cast<uint32_t>(recorders_.size() + 1), capacity_));
  cached = recorders_.back().get();
  cached_generation = generation_.load(std::memory_order_relaxed);
  return *cached;
}

Trace Telemetry::Collect() const {
  Trace trace;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& recorder : recorders_) {
    recorder->Drain(trace.events);
    trace.dropped_events += recorder->dropped();
  }
  std::sort(trace.events.begin(), trace.events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.tid < b.tid;
  });
  return trace;
}

void Telemetry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  recorders_.clear();
}

uint64_t Telemetry::NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace telemetry
}  // namespace dgcl
