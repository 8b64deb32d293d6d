// Semantics of the per-run scratch arena (util/arena.hpp): bump allocation,
// mark/rewind stack discipline, ArenaScope RAII, footprint accounting, and
// the ArenaVector container every scheduler engine builds its scratch from.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "util/arena.hpp"

namespace hp::util {
namespace {

TEST(Arena, AllocReturnsAlignedWritableMemory) {
  Arena arena(1 << 12);
  double* d = arena.alloc<double>(16);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  for (int i = 0; i < 16; ++i) d[i] = i * 1.5;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(d[i], i * 1.5);

  // Mixed alignments interleave without aliasing.
  char* c = arena.alloc<char>(3);
  std::uint64_t* q = arena.alloc<std::uint64_t>(2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % alignof(std::uint64_t), 0u);
  c[0] = 'x';
  q[0] = ~0ull;
  EXPECT_EQ(c[0], 'x');
}

TEST(Arena, AllocZeroedIsZero) {
  Arena arena(256);
  // Force several blocks so zeroing is tested across growth.
  for (int round = 0; round < 4; ++round) {
    const auto span = arena.alloc_zeroed<std::uint64_t>(100);
    ASSERT_EQ(span.size(), 100u);
    for (const std::uint64_t v : span) EXPECT_EQ(v, 0u);
    for (auto& v : span) v = 0xdeadbeef;  // dirty for the next rewind/reuse
  }
}

TEST(Arena, RewindReusesMemory) {
  Arena arena(1 << 12);
  const Arena::Mark m = arena.mark();
  int* first = arena.alloc<int>(64);
  arena.rewind(m);
  int* second = arena.alloc<int>(64);
  // Same block, same offset: the rewind reclaimed the allocation.
  EXPECT_EQ(first, second);
}

TEST(Arena, ResetReclaimsEverythingWithoutFreeing) {
  Arena arena(128);
  (void)arena.alloc<double>(4096);  // forces extra blocks
  const std::size_t reserved = arena.reserved_bytes();
  EXPECT_GT(reserved, 0u);
  arena.reset();
  // Capacity is retained for reuse...
  EXPECT_EQ(arena.reserved_bytes(), reserved);
  // ...and the next allocation does not grow it.
  (void)arena.alloc<double>(4096);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(Arena, FullRewindMergesBlocks) {
  Arena arena(256);
  {
    // A small live set in small pieces grows blocks of 256, 512, 1024 and
    // 2048 bytes.
    const ArenaScope scope(arena);
    for (int i = 0; i < 30; ++i) (void)arena.alloc<char>(100);
  }
  const std::size_t reserved = arena.reserved_bytes();
  EXPECT_EQ(reserved, 3840u);
  // A larger live set with a buffer bigger than any one of those blocks
  // fits the merged block, in every repetition.
  for (int round = 0; round < 3; ++round) {
    const ArenaScope scope(arena);
    (void)arena.alloc<char>(2800);
    (void)arena.alloc<char>(900);
    EXPECT_EQ(arena.reserved_bytes(), reserved) << "round " << round;
  }
}

TEST(Arena, HighWaterTracksPeakLiveBytes) {
  Arena arena(1 << 12);
  EXPECT_EQ(arena.high_water_bytes(), 0u);
  (void)arena.alloc<char>(100);
  const std::size_t after_first = arena.high_water_bytes();
  EXPECT_GE(after_first, 100u);
  arena.reset();
  // Rewinding never lowers the high-water mark.
  EXPECT_EQ(arena.high_water_bytes(), after_first);
  (void)arena.alloc<char>(5000);
  EXPECT_GE(arena.high_water_bytes(), 5000u);
}

TEST(Arena, ScopesNestLifo) {
  Arena arena(1 << 12);
  int* outer = nullptr;
  int* inner = nullptr;
  {
    const ArenaScope outer_scope(arena);
    outer = arena.alloc<int>(8);
    {
      const ArenaScope inner_scope(arena);
      inner = arena.alloc<int>(8);
      EXPECT_NE(inner, outer);
    }
    // Inner scope closed: its allocation is recycled in place.
    EXPECT_EQ(arena.alloc<int>(8), inner);
  }
  // Outer scope closed: everything is recycled.
  EXPECT_EQ(arena.alloc<int>(8), outer);
}

TEST(Arena, ScratchArenaIsPerThread) {
  Arena* main_arena = &scratch_arena();
  Arena* worker_arena = nullptr;
  std::thread worker([&] { worker_arena = &scratch_arena(); });
  worker.join();
  ASSERT_NE(worker_arena, nullptr);
  EXPECT_NE(main_arena, worker_arena);
  // Same thread, same arena.
  EXPECT_EQ(main_arena, &scratch_arena());
}

TEST(ArenaVector, PushBackMatchesStdVector) {
  Arena arena(1 << 10);
  ArenaVector<int> v(arena);
  std::vector<int> model;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 1000; ++i) {  // crosses several growth doublings
    v.push_back(i * 7);
    model.push_back(i * 7);
  }
  ASSERT_EQ(v.size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) EXPECT_EQ(v[i], model[i]);
  EXPECT_EQ(v.back(), model.back());
  v.pop_back();
  EXPECT_EQ(v.size(), model.size() - 1);
}

TEST(ArenaVector, InsertEraseMatchStdVector) {
  Arena arena(1 << 10);
  ArenaVector<int> v(arena);
  std::vector<int> model;
  // Deterministic pseudo-random positions.
  std::uint64_t state = 42;
  const auto next = [&](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % (bound + 1);
  };
  for (int i = 0; i < 200; ++i) {
    const std::size_t at = next(model.size());
    v.insert(v.begin() + at, i);
    model.insert(model.begin() + static_cast<std::ptrdiff_t>(at), i);
  }
  for (int i = 0; i < 100; ++i) {
    const std::size_t at = next(model.size() - 1);
    v.erase(v.begin() + at);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(at));
  }
  ASSERT_EQ(v.size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) EXPECT_EQ(v[i], model[i]);
}

TEST(ArenaVector, InsertAtFullCapacityRelocates) {
  Arena arena(1 << 10);
  ArenaVector<int> v(arena, 4);
  for (int i = 0; i < 4; ++i) v.push_back(i);
  // size == capacity: insert must grow first, then place at the old index.
  v.insert(v.begin() + 2, 99);
  ASSERT_EQ(v.size(), 5u);
  const int want[] = {0, 1, 99, 2, 3};
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], want[i]);
}

TEST(ArenaVector, ResizeReserveSpan) {
  Arena arena(1 << 10);
  ArenaVector<double> v(arena);
  v.reserve(32);
  v.resize(8);
  EXPECT_EQ(v.size(), 8u);
  std::iota(v.begin(), v.end(), 0.0);
  const std::span<const double> s = std::as_const(v).span();
  ASSERT_EQ(s.size(), 8u);
  EXPECT_EQ(s[7], 7.0);
  v.clear();
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace hp::util
