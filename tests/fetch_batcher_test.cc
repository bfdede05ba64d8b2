// Regression tests for the fetch-batcher window behavior — in particular the
// 500µs-window latency cliff (BENCH_minibatch.json): with a full-window
// hold, a solo fetch on an idle channel paid the ENTIRE window before its
// leader flushed. The arrival-gap close (close_gap_micros) fixes
// that: the leader flushes once no new rows arrive for one gap, so idle-
// channel latency is ~one gap regardless of how wide the window is. These
// tests pin both extremes of the window plus the coalescing behavior the gap
// close must not break.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/status.h"
#include "service/fetch_batcher.h"

namespace dgcl {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count());
}

FetchBatchOptions Enabled(uint64_t window_micros, uint64_t close_gap_micros) {
  FetchBatchOptions options;
  options.enabled = true;
  options.window_micros = window_micros;
  options.close_gap_micros = close_gap_micros;
  return options;
}

TEST(FetchBatcherTest, ValidateRejectsBadOptions) {
  FetchBatchOptions options = Enabled(200, 50);
  EXPECT_TRUE(options.Validate().ok());
  options.max_rows = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = Enabled(0, 0);
  EXPECT_FALSE(options.Validate().ok());
}

// The cliff itself: a huge window must NOT be paid by a solo fetch when the
// gap close is on. 50ms window, 200µs gap — a fetch that held the full
// window would take 50ms; with the gap close it must finish far sooner.
TEST(FetchBatcherTest, GapCloseFlushesSoloFetchWellBeforeWideWindow) {
  constexpr uint64_t kWindowMicros = 50'000;
  FetchBatcher batcher(2, 32, 1'000'000, Enabled(kWindowMicros, 200));
  const auto start = Clock::now();
  Status status = batcher.Fetch(0, 1, 4, [](uint64_t) { return Status::Ok(); });
  const uint64_t elapsed = MicrosSince(start);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Generous bound for CI jitter: anything close to the window is the bug.
  EXPECT_LT(elapsed, kWindowMicros / 2) << "solo fetch paid the full window";
  const FetchBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.rows, 4u);
  EXPECT_EQ(stats.coalesced, 0u);
}

// Other extreme: a gap as wide as the window holds the whole window (the gap
// deadline is clamped to it), so a solo leader sits out at least the window
// before flushing. (This is the behavior tests that need a deterministic
// join interval pin.)
TEST(FetchBatcherTest, GapEqualToWindowHoldsFullWindow) {
  constexpr uint64_t kWindowMicros = 20'000;
  FetchBatcher batcher(2, 32, 1'000'000, Enabled(kWindowMicros, kWindowMicros));
  const auto start = Clock::now();
  Status status = batcher.Fetch(0, 1, 4, [](uint64_t) { return Status::Ok(); });
  const uint64_t elapsed = MicrosSince(start);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(elapsed, kWindowMicros) << "full-window hold returned before the window expired";
}

// Tiny-window extreme: correctness does not depend on the window being wide.
TEST(FetchBatcherTest, TinyWindowStillDeliversEveryRow) {
  FetchBatcher batcher(2, 32, 1'000'000, Enabled(1, 1));
  std::atomic<uint64_t> wire_bytes{0};
  for (int i = 0; i < 8; ++i) {
    Status status = batcher.Fetch(0, 1, 2, [&](uint64_t bytes) {
      wire_bytes.fetch_add(bytes);
      return Status::Ok();
    });
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  const FetchBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.rows, 16u);
  EXPECT_EQ(stats.bytes, wire_bytes.load());
}

// Gap close must not break coalescing: joiners arriving within one gap of
// each other ride the same Transmit.
TEST(FetchBatcherTest, GapCloseStillCoalescesConcurrentFetches) {
  // Gap = window: arrivals within 20ms of the last row join the batch.
  FetchBatcher batcher(2, 32, 2'000'000, Enabled(20'000, 20'000));
  std::atomic<uint64_t> transmits{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Status status = batcher.Fetch(1, 0, 3, [&](uint64_t) {
        transmits.fetch_add(1);
        return Status::Ok();
      });
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const FetchBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.rows, static_cast<uint64_t>(kThreads) * 3);
  EXPECT_EQ(stats.messages, transmits.load());
  // At least some fetches must have coalesced onto a leader's Transmit
  // (threads start within one 20ms gap of each other).
  EXPECT_LT(stats.messages, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kThreads) - stats.messages);
}

// A failed Transmit fails every member of the batch with the same status.
TEST(FetchBatcherTest, BatchMembersShareTheLeaderStatus) {
  FetchBatcher batcher(2, 32, 2'000'000, Enabled(20'000, 20'000));
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  std::atomic<int> unavailable{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Status status =
          batcher.Fetch(0, 1, 1, [](uint64_t) { return Status::Unavailable("wire down"); });
      if (status.code() == StatusCode::kUnavailable) {
        unavailable.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(unavailable.load(), kThreads);
}

// Disabled mode: one Transmit per Fetch, no holds, accounting intact.
TEST(FetchBatcherTest, DisabledModeTransmitsPerFetch) {
  FetchBatchOptions options;  // enabled = false
  FetchBatcher batcher(2, 32, 1'000'000, options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.Fetch(0, 1, 2, [](uint64_t) { return Status::Ok(); }).ok());
  }
  const FetchBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.rows, 6u);
  EXPECT_EQ(stats.coalesced, 0u);
}

}  // namespace
}  // namespace dgcl
