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

}  // namespace
}  // namespace hp
