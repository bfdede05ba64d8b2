// Cross-request batching of remote feature-row fetches.
//
// Without batching, every request that misses the cache issues its own
// Transmit per owner shard, so concurrent requests hammer the same
// (owner, home) connection with many small messages, each paying the
// per-message wire cost (latency injection, retry state, and the
// `header_bytes` request envelope). FetchBatcher coalesces: the first
// fetcher to arrive at an idle (owner, home) channel becomes the batch
// *leader* and holds the batch open; fetchers arriving while it is open join
// the batch instead of transmitting themselves. The leader flushes when the
// arrival gap closes the batch (no new rows for `close_gap_micros` — so an
// idle channel never pays the whole window, see FetchBatchOptions), when the
// hard `window_micros` cap expires, or when the batch hits `max_rows`; it
// then issues ONE Transmit for the whole batch (header + all rows) over the
// pair's connection, still priced by the transport decision table and fault
// injection like every other transfer, and publishes the outcome to every
// joiner. p99 under load and bytes-on-wire both win (bench_minibatch
// records the two curves; EXPERIMENTS.md has the table).
//
// Concurrency contract (TSan-gated via scripts/check_sanitizers.sh): all
// channel state is guarded by the per-channel mutex; joiners block on the
// channel condvar until their batch's `done` flag is set by the leader, with
// every wait deadline-bounded so a wedged leader cannot hang a worker
// forever. One leader transmits at a time per *batch*; a new batch may start
// accumulating while the previous leader is still on the wire — the
// connection's own transmit mutex (owned by the caller-provided transmit
// function) serializes the wire itself.
//
// Disabled mode (enabled = false, the default) degrades to one Transmit per
// Fetch call through the same code path, so message/row/byte accounting is
// identical in shape and the bench compares like with like.

#ifndef DGCL_SERVICE_FETCH_BATCHER_H_
#define DGCL_SERVICE_FETCH_BATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace dgcl {

struct FetchBatchOptions {
  // Coalesce concurrent fetches per (owner, home) pair. Off by default: the
  // window trades a bounded latency add on idle channels for a large p99 and
  // bytes win under load, so the caller opts in.
  bool enabled = false;
  // Hard cap on how long a batch leader holds the batch open for joiners.
  uint64_t window_micros = 200;
  // Arrival-gap close: the leader flushes as soon as no new rows have
  // arrived for this long, instead of sitting out the full window — an idle
  // channel pays ~one gap of latency, not one window (the 500µs-window
  // latency cliff in BENCH_minibatch.json was exactly that fixed hold).
  // Must be > 0 when enabled; >= window_micros holds the whole window.
  uint64_t close_gap_micros = 50;
  // A batch reaching this many rows flushes immediately.
  size_t max_rows = 256;
  // Per-Transmit request envelope (row keys, request ids) — the fixed
  // per-message cost batching amortizes.
  uint64_t header_bytes = 64;

  Status Validate() const;
};

class FetchBatcher {
 public:
  struct Stats {
    uint64_t messages = 0;   // Transmits issued
    uint64_t rows = 0;       // feature rows carried by them
    uint64_t bytes = 0;      // bytes on wire incl. per-message header
    uint64_t coalesced = 0;  // Fetch calls that rode another call's Transmit
  };

  // `row_bytes` is the wire size of one feature row. `deadline_micros`
  // bounds every internal wait.
  FetchBatcher(uint32_t num_shards, uint64_t row_bytes, uint64_t deadline_micros,
               FetchBatchOptions options);

  FetchBatcher(const FetchBatcher&) = delete;
  FetchBatcher& operator=(const FetchBatcher&) = delete;

  // Puts `rows` feature rows from `owner` on the wire toward `home`, batched
  // with whatever else is outstanding for that pair. Blocks until the batch
  // carrying them is transmitted; returns that Transmit's status (every
  // batch member sees the same status — a retry-exhausted kUnavailable fails
  // the whole batch, exactly like the unbatched fetch it replaces).
  // `transmit(bytes)` is invoked by exactly one member (the leader) and must
  // serialize the wire itself (the service wraps Connection::Transmit in the
  // pair's connection mutex).
  Status Fetch(uint32_t owner, uint32_t home, size_t rows,
               const std::function<Status(uint64_t bytes)>& transmit);

  Stats stats() const;
  const FetchBatchOptions& options() const { return options_; }

 private:
  struct Batch {
    size_t rows = 0;
    bool done = false;
    Status status;
  };
  struct Channel {
    std::mutex mutex;
    std::condition_variable cv;
    std::shared_ptr<Batch> open;  // batch accepting joiners; null when idle
  };

  Channel& channel(uint32_t owner, uint32_t home) {
    return *channels_[static_cast<size_t>(owner) * num_shards_ + home];
  }

  uint32_t num_shards_;
  uint64_t row_bytes_;
  uint64_t deadline_micros_;
  FetchBatchOptions options_;
  std::vector<std::unique_ptr<Channel>> channels_;

  std::atomic<uint64_t> messages_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> coalesced_{0};
};

}  // namespace dgcl

#endif  // DGCL_SERVICE_FETCH_BATCHER_H_
