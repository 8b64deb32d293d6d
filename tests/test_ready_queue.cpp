// detail::ReadyQueue: every way of filling the queue yields the same pops.
// presort_all, single inserts and insert_batch must leave the same sorted
// keys in the live range, so any sequence of pops from the two ends reads
// the same tasks. Task times and priorities are quantized so that many
// tasks share a packed key and the id tie-break decides their order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/engine_parts.hpp"
#include "model/task_soa.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

using detail::ReadyQueue;

std::vector<Task> tied_tasks(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back(Task{1.0 + static_cast<double>(rng.bounded(4)),
                         1.0 + static_cast<double>(rng.bounded(4)),
                         static_cast<double>(rng.bounded(3))});
  }
  return tasks;
}

/// Pop `count` tasks (or until empty), each from an end drawn from `rng`.
void pop_some(ReadyQueue& q, std::size_t count, util::Rng& rng,
              std::vector<TaskId>* out) {
  for (std::size_t i = 0; i < count && !q.empty(); ++i) {
    out->push_back(rng.bounded(2) == 0 ? q.pop_gpu_end() : q.pop_cpu_end());
  }
}

std::vector<TaskId> drain(ReadyQueue& q, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<TaskId> popped;
  pop_some(q, q.size(), rng, &popped);
  return popped;
}

TEST(ReadyQueue, PresortSingleInsertsAndOneBatchPopAlike) {
  util::Arena arena;
  const std::vector<Task> tasks = tied_tasks(1500, 3);
  const soa::TaskSoA soa = soa::build_task_soa(tasks, arena);

  ReadyQueue presorted(soa, arena);
  presorted.presort_all(tasks.size(), arena);

  ReadyQueue single(soa, arena);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    single.insert(static_cast<TaskId>(i));
  }

  ReadyQueue batched(soa, arena);
  std::vector<util::KeyId2> keys;
  for (std::size_t i = tasks.size(); i-- > 0;) {
    keys.push_back(batched.key_of(static_cast<TaskId>(i)));
  }
  batched.insert_batch(keys, arena);

  const std::vector<TaskId> want = drain(presorted, 17);
  ASSERT_EQ(want.size(), tasks.size());
  EXPECT_EQ(drain(single, 17), want);
  EXPECT_EQ(drain(batched, 17), want);
}

TEST(ReadyQueue, BatchesInterleavedWithPopsMatchSingleInserts) {
  // Batches of random size, in random id order, between runs of pops from
  // both ends. The size ranges cover a single key, small batches on a deep
  // backlog, batches large against the backlog, and long GPU-end pop runs
  // that leave the buffer's front empty before the next batch.
  util::Arena arena;
  const std::vector<Task> tasks = tied_tasks(4000, 5);
  const soa::TaskSoA soa = soa::build_task_soa(tasks, arena);
  for (const std::uint64_t max_batch : {1u, 8u, 64u, 700u}) {
    util::Rng rng(100 + max_batch);
    std::vector<TaskId> ids(tasks.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<TaskId>(i);
    }
    for (std::size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.bounded(i)]);
    }

    ReadyQueue single(soa, arena);
    ReadyQueue batched(soa, arena);
    std::vector<TaskId> single_pops;
    std::vector<TaskId> batched_pops;
    std::vector<util::KeyId2> keys;
    std::size_t next = 0;
    std::uint64_t round = 0;
    while (next < ids.size()) {
      const std::size_t k = std::min<std::size_t>(
          1 + rng.bounded(max_batch), ids.size() - next);
      keys.clear();
      for (std::size_t j = 0; j < k; ++j, ++next) {
        single.insert(ids[next]);
        keys.push_back(batched.key_of(ids[next]));
      }
      batched.insert_batch(keys, arena);
      ASSERT_EQ(batched.size(), single.size());

      // About k/2 pops per batch, so the backlog deepens; every 7th round
      // pops three quarters of it from the GPU end instead.
      util::Rng ends_a(round);
      util::Rng ends_b(round);
      if (round % 7 == 6) {
        for (std::size_t j = single.size() * 3 / 4; j > 0; --j) {
          single_pops.push_back(single.pop_gpu_end());
          batched_pops.push_back(batched.pop_gpu_end());
        }
      } else {
        const std::size_t pops = rng.bounded(k + 1);
        pop_some(single, pops, ends_a, &single_pops);
        pop_some(batched, pops, ends_b, &batched_pops);
      }
      ASSERT_EQ(batched_pops, single_pops) << "max batch " << max_batch;
      ++round;
    }
    EXPECT_EQ(drain(batched, round), drain(single, round));
    EXPECT_TRUE(batched.empty());
  }
}

/// The queue as a plain vector in pop order (GPU end first), for checking
/// pop_least against a naive scan.
struct NaiveQueue {
  const ReadyQueue* keys;
  std::vector<util::KeyId2> items;

  void insert(TaskId id) {
    const util::KeyId2 key = keys->key_of(id);
    items.insert(std::upper_bound(items.begin(), items.end(), key,
                                  [](const util::KeyId2& a,
                                     const util::KeyId2& b) {
                                    if (a.k0 != b.k0) return a.k0 < b.k0;
                                    if (a.k1 != b.k1) return a.k1 < b.k1;
                                    return a.id < b.id;
                                  }),
                 key);
  }

  /// Least cost among the `window` keys nearest one end; ties go to the
  /// key nearer that end.
  TaskId pop_least(bool gpu_end, std::size_t window,
                   const std::vector<double>& cost) {
    const std::size_t n = items.size();
    std::size_t best = gpu_end ? 0 : n - 1;
    for (std::size_t k = 0; k < window && k < n; ++k) {
      const std::size_t at = gpu_end ? k : n - 1 - k;
      if (cost[items[at].id] < cost[items[best].id]) best = at;
    }
    const auto id = static_cast<TaskId>(items[best].id);
    items.erase(items.begin() + static_cast<std::ptrdiff_t>(best));
    return id;
  }
};

TEST(ReadyQueue, PopLeastMatchesANaiveWindowScan) {
  util::Arena arena;
  const std::vector<Task> tasks = tied_tasks(600, 9);
  const soa::TaskSoA soa = soa::build_task_soa(tasks, arena);
  util::Rng rng(21);
  // Costs from four values, so windows hold many equal ones.
  std::vector<double> cost(tasks.size());
  for (double& c : cost) c = static_cast<double>(rng.bounded(4));
  const auto by_cost = [&cost](TaskId id) {
    return cost[static_cast<std::size_t>(id)];
  };

  ReadyQueue queue(soa, arena);
  NaiveQueue naive{&queue, {}};
  std::vector<util::KeyId2> batch;
  std::size_t next = 0;
  const auto add = [&](std::size_t k) {
    batch.clear();
    for (; k > 0 && next < tasks.size(); --k, ++next) {
      const auto id = static_cast<TaskId>(next);
      batch.push_back(queue.key_of(id));
      naive.insert(id);
    }
    queue.insert_batch(batch, arena);
  };

  add(40);
  // A window larger than the whole queue, from each end.
  EXPECT_EQ(queue.pop_least(true, 1000, by_cost),
            naive.pop_least(true, 1000, cost));
  EXPECT_EQ(queue.pop_least(false, 1000, by_cost),
            naive.pop_least(false, 1000, cost));
  // All costs equal: the end itself wins at either end.
  const auto flat = [](TaskId) { return 1.0; };
  const TaskId gpu_front = queue.gpu_end();
  EXPECT_EQ(queue.pop_least(true, 8, flat), gpu_front);
  naive.items.erase(naive.items.begin());
  const TaskId cpu_back = queue.cpu_end();
  EXPECT_EQ(queue.pop_least(false, 8, flat), cpu_back);
  naive.items.pop_back();

  // Random rounds: window pops (interior removals), then plain pops and
  // single or batched inserts, checked against the naive queue throughout.
  while (next < tasks.size() || !queue.empty()) {
    if (next < tasks.size()) {
      if (rng.bounded(3) == 0) {
        queue.insert(static_cast<TaskId>(next));
        naive.insert(static_cast<TaskId>(next));
        ++next;
      } else {
        add(1 + rng.bounded(30));
      }
    }
    for (std::uint64_t j = rng.bounded(12); j > 0 && !queue.empty(); --j) {
      const bool gpu = rng.bounded(2) == 0;
      const std::size_t window = 1 + rng.bounded(10);
      ASSERT_EQ(queue.pop_least(gpu, window, by_cost),
                naive.pop_least(gpu, window, cost));
    }
    for (std::uint64_t j = rng.bounded(4); j > 0 && !queue.empty(); --j) {
      if (rng.bounded(2) == 0) {
        ASSERT_EQ(queue.pop_gpu_end(), naive.items.front().id);
        naive.items.erase(naive.items.begin());
      } else {
        ASSERT_EQ(queue.pop_cpu_end(), naive.items.back().id);
        naive.items.pop_back();
      }
    }
    ASSERT_EQ(queue.size(), naive.items.size());
  }
}

}  // namespace
}  // namespace hp
