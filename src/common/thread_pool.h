// A small fixed-size thread pool shared by planning-time machinery.
//
// Planning is offline but must scale to large graphs (§5.2 discusses SPST
// running time); the batched planner, the oblivious baselines and the bench
// harnesses all parallelize over independent work items. They share one
// process-wide pool (ThreadPool::Shared()) so nested planner invocations
// never oversubscribe the machine, but callers that need a specific width
// (e.g. the thread-count sweep bench) can construct their own.
//
// The pool runs opaque tasks; determinism is the *caller's* responsibility.
// ParallelFor provides the common deterministic shape: results indexed by
// work-item id are race-free no matter which worker claims which item.

#ifndef DGCL_COMMON_THREAD_POOL_H_
#define DGCL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dgcl {

class ThreadPool {
 public:
  // Spawns `num_threads` workers. 0 is allowed: Submit then runs tasks
  // inline (useful for tests and 1-core fallback without special cases).
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const { return static_cast<uint32_t>(workers_.size()); }

  // Enqueues a task. Tasks must not block on other tasks' *submission*;
  // blocking on another task's published result is fine as long as that task
  // was submitted first (workers drain the queue in FIFO order).
  void Submit(std::function<void()> task);

  // Runs body(i) for every i in [0, n), using up to num_threads() workers
  // plus the calling thread, and returns when all n calls finished. Work
  // items are claimed dynamically; any body(i) writing only to slot i of a
  // pre-sized output is deterministic regardless of claim order.
  void ParallelFor(uint64_t n, const std::function<void(uint64_t)>& body);

  // Process-wide pool sized to the hardware concurrency (at least 2 workers
  // so concurrency-dependent code paths are exercised even on 1-core CI).
  // Created on first use; never destroyed before exit.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dgcl

#endif  // DGCL_COMMON_THREAD_POOL_H_
