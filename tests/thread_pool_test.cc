#include "common/thread_pool.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

namespace dgcl {
namespace {

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  int done = 0;  // guarded by m
  std::mutex m;
  std::condition_variable cv;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      // Counted under the lock, so the waiter sees 100 only after the last
      // task is done with m and cv, which die when the test returns.
      std::lock_guard<std::mutex> lock(m);
      if (++done == 100) {
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done == 100; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  int ran = 0;
  pool.Submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);
  std::vector<int> hits(17, 0);
  pool.ParallelFor(hits.size(), [&](uint64_t i) { ++hits[i]; });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexOnce) {
  ThreadPool pool(4);
  for (uint64_t n : {0u, 1u, 3u, 100u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) {
      h.store(0);
    }
    pool.ParallelFor(n, [&](uint64_t i) { hits[i].fetch_add(1); });
    for (uint64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForNestsWithoutDeadlock) {
  // Inner loops run on a fully-claimed pool: caller participation must keep
  // them making progress.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](uint64_t) {
    pool.ParallelFor(8, [&](uint64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, SharedPoolHasWorkers) {
  EXPECT_GE(ThreadPool::Shared().num_threads(), 2u);
}

}  // namespace
}  // namespace dgcl
