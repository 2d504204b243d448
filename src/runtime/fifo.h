// Bounded FIFO connecting tasks (§4.1: "A connect operation '=>' creates a
// FIFO queue between tasks").
//
// The API is nonblocking: every operation returns a FifoSignal at once,
// and a side that cannot proceed parks until a *waker* fires. Executor
// tasks move data in batches: try_push_batch and try_pop_batch move up to
// a whole step's worth of values under one lock. try_push/try_pop move one
// value, for callers that have only one.
//
// Wakers are edge-triggered callbacks wired once before execution starts:
// the consumer waker fires on empty→nonempty, finish() and close(); the
// producer waker fires on full→not-full and close(). A batch operation is
// one transition: a try_push_batch that makes an empty queue nonempty fires
// the consumer waker once, however many values it moved, and one pushing
// into a nonempty queue fires nothing; a try_pop_batch from a full queue
// fires the producer waker once. So a task step wakes each neighbour at
// most once, not once per element.
//
// Combined with the executor's park protocol (a task may only park after a
// failed try-operation, and a wake on a running task is never lost) edges
// are sufficient: a failed try observed the state under the lock, so the
// next transition out of that state is guaranteed to fire. A partial
// try_push_batch is not a failed try: it left the queue full, so the
// caller retries, and that retry is the failed try it parks on.
//
// Every operation keeps the same accounting: high_water() and the
// producer/consumer blocked windows (opened by a failed try, settled by
// the transition that wakes the blocked side), which the attribution
// engine reads.
//
// Shutdown ordering: close() *discards* queued values and makes every
// subsequent operation fail fast with kShutdown, so a consumer can never
// observe data after the producer side was torn down, nor hang on a queue
// whose producer will never push again. Closed means dead, in both
// directions, immediately.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "bytecode/value.h"

namespace lm::runtime {

/// Result of a nonblocking FIFO operation.
enum class FifoSignal {
  kOk,           // the operation transferred at least one value
  kWouldBlock,   // full (push) or empty-but-open (pop); park and retry
  kEndOfStream,  // pop only: producer finished and the queue drained
  kShutdown,     // the queue was closed (error unwind); stop immediately
};

/// Single-producer single-consumer in usage (the scheduler wires one writer
/// and one reader per queue), but safe for any number of threads.
class ValueFifo {
 public:
  explicit ValueFifo(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Registers the callbacks readiness edges fire. Must be wired before
  /// execution starts (reads are unsynchronized once tasks run); wakers
  /// must be idempotent and must not re-enter this FIFO.
  void set_consumer_waker(std::function<void()> w) {
    consumer_waker_ = std::move(w);
  }
  void set_producer_waker(std::function<void()> w) {
    producer_waker_ = std::move(w);
  }

  /// Nonblocking push. kOk, kWouldBlock (full) or kShutdown (closed).
  /// `v` is consumed only on kOk. A one-value try_push_batch.
  FifoSignal try_push(bc::Value& v) {
    size_t next = 0;
    return try_push_batch(std::span<bc::Value>(&v, 1), &next);
  }

  /// Nonblocking batch push: moves vals[*next], vals[*next + 1], ... into
  /// the queue in order, under one lock, until the queue is full, and
  /// advances *next past every value moved. kOk (at least one value moved;
  /// a partial accept left the queue full), kWouldBlock (already full,
  /// nothing moved) or kShutdown (closed, nothing moved). An empty range is
  /// kOk. Fires the consumer waker once if the queue was empty, never if it
  /// was not.
  FifoSignal try_push_batch(std::span<bc::Value> vals, size_t* next) {
    if (*next >= vals.size()) return FifoSignal::kOk;
    bool fire;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return FifoSignal::kShutdown;
      if (q_.size() >= capacity_) {
        mark_blocked_locked(prod_blocked_since_);
        return FifoSignal::kWouldBlock;
      }
      settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      fire = q_.empty();
      if (fire) settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      const size_t end =
          *next + std::min(capacity_ - q_.size(), vals.size() - *next);
      for (; *next < end; ++*next) q_.push_back(std::move(vals[*next]));
      if (q_.size() > high_water_) high_water_ = q_.size();
    }
    if (fire && consumer_waker_) consumer_waker_();
    return FifoSignal::kOk;
  }

  /// Nonblocking pop. kOk, kWouldBlock (empty, stream open), kEndOfStream
  /// (empty, producer finished) or kShutdown (closed).
  FifoSignal try_pop(bc::Value* out) {
    bool fire;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return FifoSignal::kShutdown;
      if (q_.empty()) {
        if (finished_) return FifoSignal::kEndOfStream;
        mark_blocked_locked(cons_blocked_since_);
        return FifoSignal::kWouldBlock;
      }
      settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      fire = q_.size() == capacity_;
      if (fire) settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      *out = std::move(q_.front());
      q_.pop_front();
    }
    if (fire && producer_waker_) producer_waker_();
    return FifoSignal::kOk;
  }

  /// Nonblocking batch pop: appends up to `max` values to `out`. Same
  /// signals as try_pop; kOk means at least one value was appended.
  FifoSignal try_pop_batch(size_t max, std::vector<bc::Value>* out) {
    if (max == 0) return FifoSignal::kOk;
    bool fire;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return FifoSignal::kShutdown;
      if (q_.empty()) {
        if (finished_) return FifoSignal::kEndOfStream;
        mark_blocked_locked(cons_blocked_since_);
        return FifoSignal::kWouldBlock;
      }
      settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      fire = q_.size() == capacity_;
      if (fire) settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      while (!q_.empty() && max-- > 0) {
        out->push_back(std::move(q_.front()));
        q_.pop_front();
      }
    }
    if (fire && producer_waker_) producer_waker_();
    return FifoSignal::kOk;
  }

  /// Marks end-of-stream; consumers drain, then see kEndOfStream.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished_ = true;
      settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
    }
    if (consumer_waker_) consumer_waker_();
  }

  /// Closes the queue (error propagation): queued values are discarded,
  /// every later operation observes kShutdown, and both wakers fire so a
  /// parked side retries and sees it — a consumer parked at shutdown can
  /// never hang on data that will not come.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      q_.clear();
    }
    if (producer_waker_) producer_waker_();
    if (consumer_waker_) consumer_waker_();
  }

  size_t capacity() const { return capacity_; }

  /// Maximum queue occupancy ever observed (the §7 introspection metric:
  /// a FIFO that runs at capacity marks the producer side as the
  /// bottleneck; one that never fills marks the consumer).
  size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

  /// Cumulative time the producer side spent blocked on a full queue (from
  /// a failed try_push until the not-full edge). Includes any in-progress
  /// blocked window. Attribution input (§12).
  double producer_blocked_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_us_locked(prod_blocked_since_, prod_blocked_ns_);
  }
  /// Cumulative time the consumer side spent blocked on an empty-but-open
  /// queue, symmetric to producer_blocked_us().
  double consumer_blocked_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_us_locked(cons_blocked_since_, cons_blocked_ns_);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// mu_ held. Starts a blocked window unless one is already open.
  static void mark_blocked_locked(Clock::time_point& since) {
    if (since == Clock::time_point{}) since = Clock::now();
  }
  /// mu_ held. Closes an open blocked window into the accumulator.
  static void settle_blocked_locked(Clock::time_point& since,
                                    int64_t& total_ns) {
    if (since != Clock::time_point{}) {
      total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - since)
                      .count();
      since = {};
    }
  }
  static double blocked_us_locked(Clock::time_point since, int64_t total_ns) {
    if (since != Clock::time_point{}) {
      total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - since)
                      .count();
    }
    return static_cast<double>(total_ns) / 1e3;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<bc::Value> q_;
  size_t high_water_ = 0;
  bool finished_ = false;
  bool closed_ = false;
  Clock::time_point prod_blocked_since_{};
  Clock::time_point cons_blocked_since_{};
  int64_t prod_blocked_ns_ = 0;
  int64_t cons_blocked_ns_ = 0;
  /// Wired before execution, read without the lock afterwards (see
  /// set_consumer_waker).
  std::function<void()> consumer_waker_;
  std::function<void()> producer_waker_;
};

}  // namespace lm::runtime
