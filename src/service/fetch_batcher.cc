#include "service/fetch_batcher.h"

#include <chrono>

#include "telemetry/trace.h"

namespace dgcl {

Status FetchBatchOptions::Validate() const {
  if (enabled && window_micros == 0) {
    return Status::InvalidArgument("fetch.window_micros must be > 0 when batching is enabled");
  }
  if (enabled && close_gap_micros < 1) {
    return Status::InvalidArgument(
        "fetch.close_gap_micros must be > 0 when batching is enabled (set it to "
        "window_micros to hold the whole window)");
  }
  if (enabled && max_rows == 0) {
    return Status::InvalidArgument("fetch.max_rows must be > 0 when batching is enabled");
  }
  return Status::Ok();
}

FetchBatcher::FetchBatcher(uint32_t num_shards, uint64_t row_bytes, uint64_t deadline_micros,
                           FetchBatchOptions options)
    : num_shards_(num_shards),
      row_bytes_(row_bytes),
      deadline_micros_(deadline_micros),
      options_(options) {
  channels_.reserve(static_cast<size_t>(num_shards) * num_shards);
  for (uint32_t i = 0; i < num_shards * num_shards; ++i) {
    channels_.push_back(std::make_unique<Channel>());
  }
}

Status FetchBatcher::Fetch(uint32_t owner, uint32_t home, size_t rows,
                           const std::function<Status(uint64_t bytes)>& transmit) {
  if (rows == 0) {
    return Status::Ok();
  }
  auto account = [&](size_t batch_rows) {
    const uint64_t wire = options_.header_bytes + batch_rows * row_bytes_;
    messages_.fetch_add(1, std::memory_order_relaxed);
    rows_.fetch_add(batch_rows, std::memory_order_relaxed);
    bytes_.fetch_add(wire, std::memory_order_relaxed);
    return wire;
  };
  if (!options_.enabled) {
    return transmit(account(rows));
  }

  Channel& ch = channel(owner, home);
  std::unique_lock<std::mutex> lock(ch.mutex);
  std::shared_ptr<Batch> batch = ch.open;
  const bool leader = batch == nullptr;
  if (leader) {
    batch = std::make_shared<Batch>();
    batch->rows = rows;
    ch.open = batch;
  } else {
    batch->rows += rows;
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    // Every join wakes the leader: it either flushes (batch full) or restarts
    // its arrival-gap clock.
    ch.cv.notify_all();
  }

  if (leader) {
    // Hold the batch open for joiners until it fills, the hard window cap
    // expires, or no new rows arrive for one gap. The gap deadline is
    // clamped to the window, so gap >= window holds the whole window.
    const auto flush_by =
        std::chrono::steady_clock::now() + std::chrono::microseconds(options_.window_micros);
    size_t seen_rows = batch->rows;
    while (batch->rows < options_.max_rows) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= flush_by) {
        break;
      }
      const auto gap_by = now + std::chrono::microseconds(options_.close_gap_micros);
      ch.cv.wait_until(lock, gap_by < flush_by ? gap_by : flush_by, [&] {
        return batch->rows >= options_.max_rows || batch->rows != seen_rows;
      });
      if (batch->rows == seen_rows) {
        break;  // one full gap (or the rest of the window) with no arrivals
      }
      seen_rows = batch->rows;
    }
    // Close the batch: later arrivals start a fresh one (possibly while this
    // Transmit is still on the wire; the connection mutex inside `transmit`
    // serializes the wire itself).
    if (ch.open == batch) {
      ch.open = nullptr;
    }
    const size_t batch_rows = batch->rows;
    lock.unlock();
    const Status status = transmit(account(batch_rows));
    DGCL_TCOUNT1("service", "fetch.batch.flush", 1, "owner", owner);
    DGCL_TCOUNT1("service", "fetch.batch.rows", static_cast<int64_t>(batch_rows), "owner", owner);
    lock.lock();
    batch->status = status;
    batch->done = true;
    ch.cv.notify_all();
    return status;
  }

  // Joiner: wait for the leader to publish the batch outcome. Bounded by the
  // request deadline so a wedged leader cannot hang a sampler worker.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(deadline_micros_);
  if (!ch.cv.wait_until(lock, deadline, [&] { return batch->done; })) {
    return Status::DeadlineExceeded("batched fetch from shard " + std::to_string(owner) +
                                    " missed the request deadline");
  }
  return batch->status;
}

FetchBatcher::Stats FetchBatcher::stats() const {
  Stats s;
  s.messages = messages_.load(std::memory_order_relaxed);
  s.rows = rows_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dgcl
