// Concurrency tests for the inter-task FIFO (§4.1) — correctness under
// contention, backpressure, end-of-stream, and consumer-side close.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/artifact.h"
#include "obs/flight_recorder.h"
#include "runtime/fifo.h"
#include "runtime/liquid_compiler.h"
#include "runtime/liquid_runtime.h"
#include "util/error.h"

namespace lm::runtime {
namespace {

using bc::Value;

/// A thread's stand-in for an executor task's park protocol: park only
/// after a failed try-operation, on the ticket taken before it. A wake that
/// lands between the failed try and the park has already moved the
/// generation, so it is never lost.
class Parker {
 public:
  uint64_t ticket() const {
    std::lock_guard<std::mutex> lock(mu_);
    return gen_;
  }
  void wake() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++gen_;
    }
    cv_.notify_all();
  }
  void park(uint64_t ticket) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return gen_ != ticket; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t gen_ = 0;
};

/// A ValueFifo driven from plain threads: each side parks on the FIFO's
/// edge-triggered wakers between failed try-operations, exactly as
/// executor tasks do, so these tests exercise the waker protocol's
/// no-lost-wakeup claim under real contention.
class ParkedFifo : public ValueFifo {
 public:
  explicit ParkedFifo(size_t capacity) : ValueFifo(capacity) {
    set_producer_waker([this] { producers_.wake(); });
    set_consumer_waker([this] { consumers_.wake(); });
  }

  /// Parks while full; false once the queue is closed.
  bool push(Value v) {
    for (;;) {
      uint64_t t = producers_.ticket();
      FifoSignal s = try_push(v);
      if (s == FifoSignal::kOk) return true;
      if (s == FifoSignal::kShutdown) return false;
      producers_.park(t);
    }
  }

  /// Parks while empty and open; nullopt at end-of-stream or shutdown.
  std::optional<Value> pop() {
    for (;;) {
      uint64_t t = consumers_.ticket();
      Value v;
      FifoSignal s = try_pop(&v);
      if (s == FifoSignal::kOk) return v;
      if (s != FifoSignal::kWouldBlock) return std::nullopt;
      consumers_.park(t);
    }
  }

  /// Parks for the first value only; empty at end-of-stream or shutdown.
  std::vector<Value> pop_batch(size_t max) {
    std::vector<Value> out;
    for (;;) {
      uint64_t t = consumers_.ticket();
      if (try_pop_batch(max, &out) != FifoSignal::kWouldBlock) return out;
      consumers_.park(t);
    }
  }

 private:
  Parker producers_, consumers_;
};

TEST(Fifo, OrderedDelivery) {
  ParkedFifo q(8);
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) q.push(Value::i32(i));
    q.finish();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(v->as_i32(), expected++);
  }
  EXPECT_EQ(expected, 1000);
  producer.join();
}

TEST(Fifo, BackpressureBlocksProducer) {
  ParkedFifo q(2);
  std::atomic<int> produced{0};
  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) {
      q.push(Value::i32(i));
      produced.fetch_add(1);
    }
    q.finish();
  });
  // Give the producer a moment: it can push at most capacity items.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(produced.load(), 3);  // 2 queued + possibly 1 in flight
  // Drain; the producer finishes.
  int count = 0;
  while (auto v = q.pop()) ++count;
  EXPECT_EQ(count, 10);
  producer.join();
}

TEST(Fifo, FinishWithEmptyQueueYieldsNullopt) {
  ParkedFifo q(4);
  q.finish();
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());  // idempotent
}

TEST(Fifo, CloseUnblocksProducer) {
  ParkedFifo q(1);
  q.push(Value::i32(0));
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    // This push parks (queue full) until close() wakes it, then returns
    // false.
    rejected = !q.push(Value::i32(1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
  EXPECT_TRUE(rejected.load());
}

TEST(Fifo, CloseUnblocksConsumer) {
  ParkedFifo q(4);
  std::thread consumer([&] {
    auto v = q.pop();  // parks until close
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(Fifo, PopBatchDrainsUpToMax) {
  ParkedFifo q(64);
  for (int i = 0; i < 10; ++i) q.push(Value::i32(i));
  auto batch = q.pop_batch(4);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].as_i32(), 0);
  EXPECT_EQ(batch[3].as_i32(), 3);
  auto rest = q.pop_batch(100);
  EXPECT_EQ(rest.size(), 6u);
}

TEST(Fifo, PopBatchAfterFinishReturnsEmpty) {
  ParkedFifo q(4);
  q.push(Value::i32(1));
  q.finish();
  EXPECT_EQ(q.pop_batch(10).size(), 1u);
  EXPECT_TRUE(q.pop_batch(10).empty());
}

TEST(Fifo, StressManyElementsSmallCapacity) {
  ParkedFifo q(3);
  constexpr int kN = 50000;
  int64_t sum_in = 0, sum_out = 0;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) {
      q.push(Value::i32(i));
      sum_in += i;
    }
    q.finish();
  });
  std::thread consumer([&] {
    while (auto v = q.pop()) sum_out += v->as_i32();
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum_in, sum_out);
}

TEST(Fifo, BatchConsumerStress) {
  ParkedFifo q(16);
  constexpr int kN = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) q.push(Value::i32(1));
    q.finish();
  });
  int64_t count = 0;
  for (;;) {
    auto batch = q.pop_batch(7);
    if (batch.empty()) break;
    count += static_cast<int64_t>(batch.size());
  }
  EXPECT_EQ(count, kN);
  producer.join();
}

TEST(Fifo, ZeroCapacityClampsToOne) {
  ParkedFifo q(0);
  EXPECT_EQ(q.capacity(), 1u);
  q.push(Value::i32(42));
  q.finish();
  EXPECT_EQ(q.pop()->as_i32(), 42);
}

TEST(Fifo, HighWaterTracksPeakOccupancy) {
  ParkedFifo q(16);
  EXPECT_EQ(q.high_water(), 0u);
  for (int i = 0; i < 5; ++i) q.push(Value::i32(i));
  EXPECT_EQ(q.high_water(), 5u);
  // Draining does not lower the mark.
  (void)q.pop();
  (void)q.pop();
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.high_water(), 5u);
  // Refilling past the old peak raises it.
  for (int i = 0; i < 6; ++i) q.push(Value::i32(i));
  EXPECT_EQ(q.high_water(), 9u);
}

TEST(Fifo, HighWaterNeverExceedsCapacity) {
  ParkedFifo q(4);
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) q.push(Value::i32(i));
    q.finish();
  });
  while (q.pop()) {
  }
  producer.join();
  EXPECT_GE(q.high_water(), 1u);
  EXPECT_LE(q.high_water(), q.capacity());
}

/// The scheduler wires FIFOs single-producer single-consumer, but the class
/// claims safety for any number of threads — hammer that claim (and give
/// TSan a workout): 4 producers, 4 consumers, every element accounted for.
TEST(Fifo, MpmcHammer) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 10000;
  ParkedFifo q(8);
  std::atomic<int> producers_left{kProducers};
  std::atomic<int64_t> sum_out{0};
  std::atomic<int64_t> count_out{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(Value::i32(p * kPerProducer + i));
      }
      // Last producer out marks end-of-stream.
      if (producers_left.fetch_sub(1) == 1) q.finish();
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum_out.fetch_add(v->as_i32(), std::memory_order_relaxed);
        count_out.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();

  constexpr int64_t kTotal = int64_t{kProducers} * kPerProducer;
  EXPECT_EQ(count_out.load(), kTotal);
  EXPECT_EQ(sum_out.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_LE(q.high_water(), q.capacity());
}

/// Capacity 1 is the degenerate fully-serialized pipe: strict alternation
/// between producer and consumer, order preserved.
TEST(Fifo, CapacityOnePreservesOrderUnderLoad) {
  ParkedFifo q(1);
  constexpr int kN = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) q.push(Value::i32(i));
    q.finish();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    ASSERT_EQ(v->as_i32(), expected++);
  }
  EXPECT_EQ(expected, kN);
  producer.join();
  EXPECT_EQ(q.high_water(), 1u);
}

/// close() while multiple producers AND consumers are blocked: everyone
/// must wake, producers see rejection, consumers see end-of-stream.
TEST(Fifo, CloseWhileManyBlocked) {
  ParkedFifo q(1);
  q.push(Value::i32(0));  // fill: further pushes park

  std::atomic<int> rejected{0};
  std::atomic<int> woke_empty{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      if (!q.push(Value::i32(99))) rejected.fetch_add(1);
    });
  }
  // A second queue whose consumers block on empty.
  ParkedFifo empty_q(4);
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      if (!empty_q.pop().has_value()) woke_empty.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  empty_q.close();
  for (auto& t : threads) t.join();
  EXPECT_EQ(rejected.load(), 3);
  EXPECT_EQ(woke_empty.load(), 3);
  // After close, pushes fail fast and pops drain nothing.
  EXPECT_FALSE(q.push(Value::i32(1)));
  EXPECT_FALSE(empty_q.pop().has_value());
}

TEST(FifoShutdown, CloseDiscardsQueuedValues) {
  // Regression: close() used to leave buffered values poppable, so a
  // consumer at shutdown could observe data from a producer that had
  // already been torn down — or block forever waiting for the rest of a
  // stream that would never come. Closed means dead, immediately.
  ParkedFifo q(4);
  q.push(Value::i32(1));
  q.push(Value::i32(2));
  q.close();
  EXPECT_FALSE(q.pop().has_value());
  Value v;
  EXPECT_EQ(q.try_pop(&v), FifoSignal::kShutdown);
  std::vector<Value> batch;
  EXPECT_EQ(q.try_pop_batch(8, &batch), FifoSignal::kShutdown);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(FifoShutdown, ConsumerBlockedAtShutdownNeverHangs) {
  // A consumer already parked in pop when close() arrives must observe the
  // shutdown (nullopt), not data and not a hang: close() fires the consumer
  // waker. A hang here trips the per-test ctest timeout.
  ParkedFifo q(4);
  std::atomic<bool> observed_shutdown{false};
  std::thread consumer([&] {
    observed_shutdown.store(!q.pop().has_value());
  });
  // Let the consumer reach the wait with high probability, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(observed_shutdown.load());
}

TEST(FifoShutdown, CloseAfterFinishStillDiscardsBufferedTail) {
  // finish() promises the buffered values will be delivered; a later
  // close() (error unwind) revokes that promise — the error path must win.
  ParkedFifo q(4);
  q.push(Value::i32(7));
  q.finish();
  q.close();
  EXPECT_FALSE(q.pop().has_value());
  Value v;
  EXPECT_EQ(q.try_pop(&v), FifoSignal::kShutdown);
}

TEST(Fifo, TryApiSignalsAndBackpressure) {
  ValueFifo q(2);
  Value v = Value::i32(10);
  EXPECT_EQ(q.try_push(v), FifoSignal::kOk);
  v = Value::i32(11);
  EXPECT_EQ(q.try_push(v), FifoSignal::kOk);
  v = Value::i32(12);
  EXPECT_EQ(q.try_push(v), FifoSignal::kWouldBlock);  // full; v not consumed
  EXPECT_EQ(v.as_i32(), 12);

  Value got;
  EXPECT_EQ(q.try_pop(&got), FifoSignal::kOk);
  EXPECT_EQ(got.as_i32(), 10);
  EXPECT_EQ(q.try_push(v), FifoSignal::kOk);  // space again

  std::vector<Value> batch;
  EXPECT_EQ(q.try_pop_batch(8, &batch), FifoSignal::kOk);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].as_i32(), 11);
  EXPECT_EQ(batch[1].as_i32(), 12);

  EXPECT_EQ(q.try_pop(&got), FifoSignal::kWouldBlock);  // empty, open
  q.finish();
  EXPECT_EQ(q.try_pop(&got), FifoSignal::kEndOfStream);
}

TEST(Fifo, WakersFireOnEdgesOnly) {
  ValueFifo q(2);
  int consumer_wakes = 0;
  int producer_wakes = 0;
  q.set_consumer_waker([&] { ++consumer_wakes; });
  q.set_producer_waker([&] { ++producer_wakes; });

  Value v = Value::i32(0);
  EXPECT_EQ(q.try_push(v), FifoSignal::kOk);  // empty→nonempty edge
  EXPECT_EQ(consumer_wakes, 1);
  v = Value::i32(1);
  EXPECT_EQ(q.try_push(v), FifoSignal::kOk);  // still nonempty: no edge
  EXPECT_EQ(consumer_wakes, 1);

  Value got;
  EXPECT_EQ(q.try_pop(&got), FifoSignal::kOk);  // full→not-full edge
  EXPECT_EQ(producer_wakes, 1);
  EXPECT_EQ(q.try_pop(&got), FifoSignal::kOk);  // was not full: no edge
  EXPECT_EQ(producer_wakes, 1);

  q.finish();  // end-of-stream is a consumer readiness event
  EXPECT_EQ(consumer_wakes, 2);
  q.close();  // shutdown wakes both sides
  EXPECT_EQ(consumer_wakes, 3);
  EXPECT_EQ(producer_wakes, 2);
}

std::vector<Value> i32_values(int first, int count) {
  std::vector<Value> v;
  for (int i = 0; i < count; ++i) v.push_back(Value::i32(first + i));
  return v;
}

TEST(FifoBatch, PartialAcceptStopsAtCapacityAndAdvancesCursor) {
  ValueFifo q(4);
  Value one = Value::i32(-1);
  ASSERT_EQ(q.try_push(one), FifoSignal::kOk);
  std::vector<Value> vals = i32_values(0, 6);
  size_t next = 0;
  EXPECT_EQ(q.try_push_batch(vals, &next), FifoSignal::kOk);
  EXPECT_EQ(next, 3u);  // exactly the three free slots
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(vals[3].as_i32(), 3);  // the rest is untouched for the retry
  // A partial accept is not a failed try: no blocked window yet.
  EXPECT_EQ(q.producer_blocked_us(), 0.0);

  std::vector<Value> got;
  ASSERT_EQ(q.try_pop_batch(8, &got), FifoSignal::kOk);
  EXPECT_EQ(q.try_push_batch(vals, &next), FifoSignal::kOk);
  EXPECT_EQ(next, 6u);
  ASSERT_EQ(q.try_pop_batch(8, &got), FifoSignal::kOk);
  ASSERT_EQ(got.size(), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(got[i].as_i32(), i - 1);

  // An empty range moves nothing and succeeds.
  EXPECT_EQ(q.try_push_batch(vals, &next), FifoSignal::kOk);
  EXPECT_EQ(next, 6u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(FifoBatch, WouldBlockOnlyWhenFullAndNextPopSettlesTheWindow) {
  ValueFifo q(2);
  std::vector<Value> vals = i32_values(0, 3);
  size_t next = 0;
  ASSERT_EQ(q.try_push_batch(vals, &next), FifoSignal::kOk);  // fills it
  ASSERT_EQ(next, 2u);
  EXPECT_EQ(q.producer_blocked_us(), 0.0);
  EXPECT_EQ(q.try_push_batch(vals, &next), FifoSignal::kWouldBlock);
  EXPECT_EQ(next, 2u);
  EXPECT_EQ(vals[2].as_i32(), 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(q.producer_blocked_us(), 0.0);  // the window is open
  Value got;
  ASSERT_EQ(q.try_pop(&got), FifoSignal::kOk);  // full→not-full settles it
  double settled = q.producer_blocked_us();
  EXPECT_GE(settled, 2000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(q.producer_blocked_us(), settled);  // closed, no longer growing
  EXPECT_EQ(q.try_push_batch(vals, &next), FifoSignal::kOk);
  EXPECT_EQ(next, 3u);
}

TEST(FifoBatch, ShutdownAfterCloseConsumesNothing) {
  ValueFifo q(8);
  q.close();
  std::vector<Value> vals = i32_values(0, 4);
  size_t next = 1;
  EXPECT_EQ(q.try_push_batch(vals, &next), FifoSignal::kShutdown);
  EXPECT_EQ(next, 1u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(vals[i].as_i32(), i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(FifoBatch, ConsumerWakerFiresOncePerEmptyToNonemptyBatch) {
  ValueFifo q(8);
  int consumer_wakes = 0;
  q.set_consumer_waker([&] { ++consumer_wakes; });
  std::vector<Value> vals = i32_values(0, 5);
  size_t next = 0;
  std::span<Value> all(vals);
  ASSERT_EQ(q.try_push_batch(all.first(3), &next), FifoSignal::kOk);
  EXPECT_EQ(consumer_wakes, 1);  // three values, one edge
  ASSERT_EQ(q.try_push_batch(all, &next), FifoSignal::kOk);
  EXPECT_EQ(next, 5u);
  EXPECT_EQ(consumer_wakes, 1);  // pushed into a nonempty queue: no edge
  std::vector<Value> got;
  ASSERT_EQ(q.try_pop_batch(8, &got), FifoSignal::kOk);
  vals = i32_values(5, 4);
  next = 0;
  ASSERT_EQ(q.try_push_batch(vals, &next), FifoSignal::kOk);
  EXPECT_EQ(consumer_wakes, 2);
}

TEST(FifoBatch, HighWaterTracksBatchPushes) {
  ValueFifo q(8);
  std::vector<Value> vals = i32_values(0, 5);
  size_t next = 0;
  ASSERT_EQ(q.try_push_batch(vals, &next), FifoSignal::kOk);
  EXPECT_EQ(q.high_water(), 5u);
  std::vector<Value> got;
  ASSERT_EQ(q.try_pop_batch(3, &got), FifoSignal::kOk);
  vals = i32_values(5, 20);
  next = 0;
  ASSERT_EQ(q.try_push_batch(vals, &next), FifoSignal::kOk);
  EXPECT_EQ(next, 6u);
  EXPECT_EQ(q.high_water(), 8u);
}

TEST(FifoBatch, PopBatchFromFullFiresProducerWakerOncePerBatch) {
  ValueFifo q(4);
  int producer_wakes = 0;
  q.set_producer_waker([&] { ++producer_wakes; });
  std::vector<Value> vals = i32_values(0, 4);
  size_t next = 0;
  ASSERT_EQ(q.try_push_batch(vals, &next), FifoSignal::kOk);
  std::vector<Value> got;
  ASSERT_EQ(q.try_pop_batch(2, &got), FifoSignal::kOk);
  EXPECT_EQ(producer_wakes, 1);  // full→not-full, two values, one edge
  ASSERT_EQ(q.try_pop_batch(1, &got), FifoSignal::kOk);
  EXPECT_EQ(producer_wakes, 1);  // was not full: no edge
  vals = i32_values(4, 3);
  next = 0;
  ASSERT_EQ(q.try_push_batch(vals, &next), FifoSignal::kOk);
  ASSERT_EQ(q.size(), 4u);
  ASSERT_EQ(q.try_pop_batch(8, &got), FifoSignal::kOk);
  EXPECT_EQ(producer_wakes, 2);
  ASSERT_EQ(got.size(), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(got[i].as_i32(), i);
}

/// The FIFO occupancy metric surfaced by the runtime must agree with what
/// the FIFOs themselves observed: a tiny capacity forces the high-water
/// mark to exactly that capacity on a long stream.
TEST(Fifo, RuntimeHighWaterMetricMatchesObservation) {
  ParkedFifo q(2);
  constexpr int kN = 5000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) q.push(Value::i32(i));
    q.finish();
  });
  // A deliberately slow consumer guarantees the queue fills.
  int count = 0;
  while (auto v = q.pop()) {
    if (count++ == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  producer.join();
  EXPECT_EQ(count, kN);
  EXPECT_EQ(q.high_water(), q.capacity());
}

// ---------------------------------------------------------------------------
// Shutdown propagation through a running pipeline
// ---------------------------------------------------------------------------
//
// When a node deep in the pipeline dies, every producer upstream of it may
// be *blocked* on a full FIFO (capacity 1 makes that certain). The error
// path must close each consumer's input queue hop by hop so those blocked
// push() calls return false and the whole chain unwinds — the regression
// here is a graph that hangs forever in finish() instead of surfacing the
// task error.

/// A device artifact that computes 3*x for its first `ok_calls` batches and
/// then throws — a deterministic mid-stream device fault.
class FailingArtifact final : public Artifact {
 public:
  FailingArtifact(std::string task_id, DeviceKind device, uint64_t ok_calls)
      : Artifact(make_manifest(std::move(task_id), device)),
        ok_calls_(ok_calls) {}

  std::vector<bc::Value> process(std::span<const bc::Value> inputs) override {
    if (calls_++ >= ok_calls_) {
      throw RuntimeError("injected device fault in " + manifest_.task_id);
    }
    std::vector<bc::Value> out;
    out.reserve(inputs.size());
    for (const auto& v : inputs) out.push_back(bc::Value::i32(3 * v.as_i32()));
    return out;
  }

 private:
  static ArtifactManifest make_manifest(std::string task_id,
                                        DeviceKind device) {
    ArtifactManifest m;
    m.task_id = std::move(task_id);
    m.device = device;
    m.arity = 1;
    m.artifact_text = "// failing test artifact";
    return m;
  }

  uint64_t ok_calls_;
  uint64_t calls_ = 0;
};

constexpr const char* kChainSource = R"(
  class P {
    local static int a(int x) { return x + 1; }
    local static int b(int x) { return x * 2; }
    local static int c(int x) { return x - 3; }
    static int[[]] run(int[[]] input) {
      int[] result = new int[input.length];
      var g = input.source(1)
        => ([ task a ]) => ([ task b ]) => ([ task c ])
        => result.<int>sink();
      g.finish();
      return new int[[]](result);
    }
  }
)";

void expect_fault_unwinds(const char* failing_task, uint64_t ok_calls) {
  CompileOptions copts;
  copts.enable_gpu = false;  // the only device artifact is the failing one
  copts.enable_fpga = false;
  auto cp = compile(kChainSource, copts);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  cp->store.add(std::make_unique<FailingArtifact>(failing_task,
                                                  DeviceKind::kGpu, ok_calls));

  RuntimeConfig rc;
  rc.placement = Placement::kGpuOnly;
  rc.fifo_capacity = 1;  // guarantee upstream producers block mid-stream
  rc.device_batch = 4;
  rc.use_threads = true;
  LiquidRuntime rt(*cp, rc);

  // Long enough that the source cannot possibly fit in the queues: without
  // shutdown propagation this call never returns.
  const size_t n = 20000;
  std::vector<int32_t> input(n, 1);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(rt.call("P.run",
                       {bc::Value::array(bc::make_i32_array(input, true))}),
               RuntimeError);
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            15)
      << "pipeline unwind stalled";
}

TEST(FifoShutdown, MidPipelineFaultUnwindsBlockedUpstreamProducers) {
  expect_fault_unwinds("P.b", 0);
}

TEST(FifoShutdown, SinkAdjacentFaultUnwindsWholeChain) {
  expect_fault_unwinds("P.c", 0);
}

TEST(FifoShutdown, FaultAfterSuccessfulBatchesStillUnwinds) {
  expect_fault_unwinds("P.b", 3);
}

// A bytecode filter that faults in the middle of a step batch: firing 499
// of P.d divides by zero while its step has already fired (and staged)
// the firings before it, and the source is blocked upstream on full
// queues. The unwind must still reach the source under every schedule.
TEST(FifoShutdown, MidBatchFilterFaultUnwindsToSource) {
  auto cp = compile(R"(
    class P {
      local static int a(int x) { return x + 1; }
      local static int d(int x, int y) { return x / (y - 1000); }
      local static int c(int x) { return x - 3; }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length / 2];
        var g = input.source(1) => ([ task a ]) => ([ task d ])
          => ([ task c ]) => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )");
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  std::vector<int32_t> input(20000);
  for (size_t i = 0; i < input.size(); ++i) input[i] = static_cast<int32_t>(i);
  for (auto [workers, seed] : {std::pair<size_t, uint64_t>{1, 0}, {4, 0},
                               {1, 5}}) {
    RuntimeConfig rc;
    rc.placement = Placement::kCpuOnly;
    rc.worker_threads = workers;
    rc.scheduler_seed = seed;
    LiquidRuntime rt(*cp, rc);
    auto t0 = std::chrono::steady_clock::now();
    try {
      rt.call("P.run", {bc::Value::array(bc::make_i32_array(input, true))});
      ADD_FAILURE() << "the fault did not surface";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("division by zero"),
                std::string::npos)
          << e.what();
    }
    auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(
        std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 15)
        << workers << " workers, seed " << seed << ": unwind stalled";
  }
}

// The fault must also reach the flight recorder (the black box is the
// first responder in note_error).
TEST(FifoShutdown, FaultLandsInFlightRecorder) {
  expect_fault_unwinds("P.b", 1);
  bool saw = false;
  for (const auto& ev : obs::FlightRecorder::instance().snapshot()) {
    if (std::string(ev.category) == "fault" &&
        std::string(ev.name) == "task-error") {
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace lm::runtime
