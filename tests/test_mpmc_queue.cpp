// Tests for serve/mpmc_queue: the lock-free intake queue of the scheduling
// service. The contract under test: every pushed value is popped exactly
// once (no loss, no duplication) across arbitrary producer/consumer grids;
// values from one producer come out in that producer's push order
// (per-producer FIFO); a bounded queue never holds more than its capacity;
// and sustained churn recycles ring segments through the epoch scheme
// instead of growing the footprint. try_pop may fail spuriously while a
// peer is mid-operation, so drains loop until the accounting balances.
//
// MpmcQueue.* runs in the `serve`-labeled aggregate, which the
// ThreadSanitizer CI job executes alongside `-L concurrency`.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/mpmc_queue.hpp"

namespace hp::serve {
namespace {

// Value type carrying (producer, sequence) so consumers can check both
// uniqueness and per-producer order.
struct Tagged {
  std::uint32_t producer;
  std::uint32_t sequence;
};

TEST(MpmcQueue, SingleThreadRoundTripIsFifo) {
  MpmcQueue<int> queue(/*slots=*/1, /*segment_capacity=*/4);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(queue.try_push(0, i));
  EXPECT_EQ(queue.approx_size(), 10u);
  for (int i = 0; i < 10; ++i) {
    int out = -1;
    // Spurious failure cannot happen single-threaded with items queued.
    ASSERT_TRUE(queue.try_pop(0, &out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(queue.try_pop(0, &out)) << "queue should be empty";
  EXPECT_EQ(queue.approx_size(), 0u);
}

TEST(MpmcQueue, CrossesSegmentBoundariesInOrder) {
  // Capacity 2 forces a fresh segment every other push.
  MpmcQueue<int> queue(/*slots=*/1, /*segment_capacity=*/2);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(queue.try_push(0, i));
  EXPECT_GE(queue.segments_allocated(), 2u);
  for (int i = 0; i < 64; ++i) {
    int out = -1;
    ASSERT_TRUE(queue.try_pop(0, &out));
    EXPECT_EQ(out, i);
  }
}

TEST(MpmcQueue, HardCapacityBoundsAcceptedPushes) {
  MpmcQueue<int> queue(/*slots=*/1, /*segment_capacity=*/4, /*capacity=*/6);
  int accepted = 0;
  for (int i = 0; i < 20; ++i) accepted += queue.try_push(0, i) ? 1 : 0;
  EXPECT_EQ(accepted, 6);
  int out = -1;
  ASSERT_TRUE(queue.try_pop(0, &out));
  EXPECT_EQ(out, 0);
  // One slot of custody freed: exactly one more push fits.
  EXPECT_TRUE(queue.try_push(0, 100));
  EXPECT_FALSE(queue.try_push(0, 101));
}

TEST(MpmcQueue, InterleavedPushPopNeverLosesAValue) {
  MpmcQueue<int> queue(/*slots=*/1, /*segment_capacity=*/2);
  long long pushed_sum = 0;
  long long popped_sum = 0;
  int next = 0;
  // Sawtooth load keeps crossing segment boundaries with a near-empty
  // queue, the regime where head/tail advance race hardest.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(queue.try_push(0, next));
      pushed_sum += next++;
    }
    for (int i = 0; i < 2; ++i) {
      int out = -1;
      ASSERT_TRUE(queue.try_pop(0, &out));
      popped_sum += out;
    }
  }
  int out = -1;
  while (queue.try_pop(0, &out)) popped_sum += out;
  EXPECT_EQ(popped_sum, pushed_sum);
}

/// Run `producers` x `consumers` threads moving `per_producer` values each
/// and return the consumed tags; asserts nothing is lost or duplicated.
void run_grid(int producers, int consumers, std::uint32_t per_producer,
              std::uint32_t segment_capacity) {
  MpmcQueue<Tagged> queue(
      static_cast<std::size_t>(producers + consumers), segment_capacity);
  const std::uint64_t total =
      static_cast<std::uint64_t>(producers) * per_producer;
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::vector<Tagged>> seen(
      static_cast<std::size_t>(consumers));

  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint32_t i = 0; i < per_producer; ++i) {
        Tagged value{static_cast<std::uint32_t>(p), i};
        while (!queue.try_push(static_cast<std::size_t>(p), value)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t slot = static_cast<std::size_t>(producers + c);
      std::vector<Tagged>& mine = seen[static_cast<std::size_t>(c)];
      while (consumed.load(std::memory_order_acquire) < total) {
        Tagged out{};
        if (queue.try_pop(slot, &out)) {
          mine.push_back(out);
          consumed.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly-once delivery: every (producer, sequence) tag seen once.
  std::vector<std::uint32_t> next_seq(static_cast<std::size_t>(producers), 0);
  std::vector<std::vector<std::uint32_t>> per_consumer_seq(
      static_cast<std::size_t>(producers));
  std::uint64_t delivered = 0;
  std::vector<char> hit(total, 0);
  for (int c = 0; c < consumers; ++c) {
    // Per-producer FIFO: within one consumer's stream, sequences from any
    // single producer must be strictly increasing (a consumer can only be
    // handed producer p's values in the order they were enqueued).
    std::vector<std::int64_t> last(static_cast<std::size_t>(producers), -1);
    for (const Tagged& t : seen[static_cast<std::size_t>(c)]) {
      ASSERT_LT(t.producer, static_cast<std::uint32_t>(producers));
      ASSERT_LT(t.sequence, per_producer);
      const std::uint64_t key =
          static_cast<std::uint64_t>(t.producer) * per_producer + t.sequence;
      EXPECT_EQ(hit[key], 0) << "value delivered twice";
      hit[key] = 1;
      ++delivered;
      EXPECT_GT(static_cast<std::int64_t>(t.sequence), last[t.producer])
          << "producer " << t.producer << " reordered at a single consumer";
      last[t.producer] = t.sequence;
    }
  }
  EXPECT_EQ(delivered, total);
  EXPECT_EQ(std::count(hit.begin(), hit.end(), 0), 0);
  EXPECT_EQ(queue.approx_size(), 0u);
}

TEST(MpmcQueue, GridOneToOne) { run_grid(1, 1, 20000, 64); }
TEST(MpmcQueue, GridManyToOne) { run_grid(4, 1, 8000, 32); }
TEST(MpmcQueue, GridOneToMany) { run_grid(1, 4, 20000, 32); }
TEST(MpmcQueue, GridManyToMany) { run_grid(4, 4, 8000, 16); }
// Tiny segments maximize boundary crossings — the poison/advance paths.
TEST(MpmcQueue, GridTinySegmentsStressBoundaries) { run_grid(3, 3, 5000, 2); }

// Deterministic flatness: a single participant's guard always closes
// between operations, so every retired segment is reclaimable by the time
// the next one is needed — the footprint must stay at a couple of segments
// no matter how many values flow through.
TEST(MpmcQueue, SingleThreadChurnKeepsFootprintExactlyFlat) {
  MpmcQueue<int> queue(/*slots=*/1, /*segment_capacity=*/2);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(queue.try_push(0, i));
    int out = -1;
    ASSERT_TRUE(queue.try_pop(0, &out));
    EXPECT_EQ(out, i);
  }
  EXPECT_LE(queue.segments_allocated(), 4u);
  EXPECT_GE(queue.segments_recycled(), 4000u);
}

TEST(MpmcQueue, ChurnRecyclesSegmentsInsteadOfGrowing) {
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 20000;
  // Each thread pushes then pops, so the queue hovers near-empty while
  // segment turnover is maximal (capacity 2: a fresh segment every other
  // value). Recycling must supply nearly all of them.
  MpmcQueue<int> queue(kThreads, /*segment_capacity=*/2);
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> popped{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t slot = static_cast<std::size_t>(t);
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        while (!queue.try_push(slot, static_cast<int>(i))) {
          std::this_thread::yield();
        }
        int out = -1;
        if (queue.try_pop(slot, &out)) {
          popped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int out = -1;
  while (queue.try_pop(0, &out)) popped.fetch_add(1, std::memory_order_relaxed);
  EXPECT_EQ(popped.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);

  // ~40000 segments were consumed (80000 values, 2 per segment) and the
  // freelist must supply most of them. The bound is deliberately loose: a
  // thread the OS preempts *inside* its epoch guard pins reclamation for a
  // whole scheduling quantum, during which the others legitimately fall
  // back to allocation — epochs trade bounded memory for non-blocking
  // progress. What must never happen is allocation keeping pace with
  // churn (the single-thread test above pins the no-preemption floor).
  const std::size_t consumed =
      static_cast<std::size_t>(kThreads) * kPerThread / 2;
  EXPECT_GT(queue.segments_recycled(), queue.segments_allocated())
      << "segment churn is not being recycled";
  EXPECT_LT(queue.segments_allocated(), consumed / 2)
      << "allocated " << queue.segments_allocated() << " of " << consumed
      << " segments consumed: reclamation is not keeping up";
}

}  // namespace
}  // namespace hp::serve
