#include "common/thread_pool.h"

#include <atomic>

namespace dgcl {

ThreadPool::ThreadPool(uint32_t num_threads) {
  workers_.reserve(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to drain
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(uint64_t n, const std::function<void(uint64_t)>& body) {
  if (n == 0) {
    return;
  }
  const uint64_t helpers = std::min<uint64_t>(num_threads(), n > 0 ? n - 1 : 0);
  if (helpers == 0) {
    for (uint64_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  // Claim-loop shared by the caller and `helpers` pool tasks. The caller
  // participates, so even a fully busy pool makes progress; completion is
  // tracked per finished *item* so the caller returns only after the last
  // body() call, whichever thread ran it.
  struct SharedState {
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
  };
  auto state = std::make_shared<SharedState>();
  auto run = [state, n, &body] {
    for (;;) {
      const uint64_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      body(i);
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->cv.notify_all();
      }
    }
  };
  // Helpers capture `body` by reference: they are joined (via the `done`
  // count) before ParallelFor returns, so the reference outlives them.
  for (uint64_t h = 0; h < helpers; ++h) {
    Submit(run);
  }
  run();
  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&] { return state->done.load(std::memory_order_acquire) == n; });
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(std::max(2u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace dgcl
