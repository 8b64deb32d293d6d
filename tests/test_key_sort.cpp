// Packed monotone keys (model/task_soa.hpp) and the range-scaled key sort
// (util/key_sort.hpp): ordered_key must be a strict order-embedding of the
// non-NaN doubles into u64, the batched SIMD pack must match the scalar
// reference bitwise, and sort_key_id/sort_key2_id must order exactly like
// the comparator-based std::sort they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "model/task_soa.hpp"
#include "util/arena.hpp"
#include "util/key_sort.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

TEST(OrderedKey, StrictlyMonotoneOverSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  // Strictly increasing as doubles; keys must strictly increase too.
  const double ascending[] = {-inf,    -1e308, -1.0, -1e-12, -denorm,
                              0.0,     denorm, 1e-12, 1.0,   1e308,
                              inf};
  for (std::size_t i = 0; i + 1 < std::size(ascending); ++i) {
    EXPECT_LT(soa::ordered_key(ascending[i]), soa::ordered_key(ascending[i + 1]))
        << ascending[i] << " vs " << ascending[i + 1];
    // descending_key flips every comparison.
    EXPECT_GT(soa::descending_key(ascending[i]),
              soa::descending_key(ascending[i + 1]));
  }
}

TEST(OrderedKey, SignedZerosCollapse) {
  // -0.0 == 0.0 as doubles, so the keys must be equal (a sort keyed on
  // ordered_key otherwise diverges from a comparator-based sort).
  EXPECT_EQ(soa::ordered_key(-0.0), soa::ordered_key(0.0));
}

TEST(OrderedKey, AgreesWithDoubleComparisonOnRandomValues) {
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.uniform(-1e6, 1e6);
    const double b = rng.uniform(-1e6, 1e6);
    EXPECT_EQ(a < b, soa::ordered_key(a) < soa::ordered_key(b));
  }
}

TEST(PackKeys, SimdMatchesScalarAcrossLengths) {
  util::Rng rng(11);
  // Lengths straddling the vector width and its remainders.
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 15u, 64u, 1000u}) {
    std::vector<double> accel(n);
    for (auto& a : accel) a = rng.uniform(0.01, 50.0);
    if (n > 2) accel[n / 2] = 1.0;  // the rho == 1 boundary value
    std::vector<std::uint64_t> simd(n), scalar(n);
    soa::pack_descending_keys(accel, simd);
    soa::pack_descending_keys_scalar(accel, scalar);
    EXPECT_EQ(simd, scalar) << "n=" << n;
  }
}

void expect_sorted_like_comparator(std::vector<util::KeyId> items) {
  std::vector<util::KeyId> want = items;
  std::sort(want.begin(), want.end(),
            [](const util::KeyId& a, const util::KeyId& b) {
              return a.key != b.key ? a.key < b.key : a.id < b.id;
            });
  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  util::sort_key_id(items, arena);
  ASSERT_EQ(items.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(items[i].key, want[i].key) << "at " << i;
    EXPECT_EQ(items[i].id, want[i].id) << "at " << i;
  }
}

TEST(KeySort, MatchesStdSortOnRandomKeys) {
  util::Rng rng(3);
  // Sizes covering the insertion-sort, small-sort and bucket paths.
  for (const std::size_t n : {0u, 1u, 2u, 39u, 95u, 96u, 97u, 4096u}) {
    std::vector<util::KeyId> items(n);
    for (std::size_t i = 0; i < n; ++i) {
      items[i] = util::KeyId{rng(), static_cast<std::uint32_t>(i)};
    }
    expect_sorted_like_comparator(std::move(items));
  }
}

TEST(KeySort, ManyDuplicatesKeepIdOrder) {
  util::Rng rng(5);
  std::vector<util::KeyId> items(3000);
  for (std::size_t i = 0; i < items.size(); ++i) {
    // Only 4 distinct keys: the id tie-break carries the order.
    items[i] =
        util::KeyId{rng() % 4, static_cast<std::uint32_t>(i * 31 % 997)};
  }
  expect_sorted_like_comparator(std::move(items));
}

TEST(KeySort, AllEqualAndNarrowRanges) {
  // lo == hi short-circuits the bucket scaling; narrow ranges stress it.
  std::vector<util::KeyId> equal(500, util::KeyId{42, 0});
  for (std::size_t i = 0; i < equal.size(); ++i) {
    equal[i].id = static_cast<std::uint32_t>(499 - i);
  }
  expect_sorted_like_comparator(std::move(equal));

  std::vector<util::KeyId> narrow(500);
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    narrow[i] = util::KeyId{(1ull << 60) + (i * 7 % 11),
                            static_cast<std::uint32_t>(i)};
  }
  expect_sorted_like_comparator(std::move(narrow));
}

TEST(KeySort, PackedPriorityKeysSortTasksLikeComparator) {
  // End-to-end: the packed double keys occupy few top-bit patterns (the
  // motivating case for range-scaled buckets); the sorted order must still
  // equal the comparator order on the underlying doubles.
  util::Rng rng(13);
  std::vector<double> pri(2000);
  for (auto& p : pri) p = rng.uniform(0.0, 100.0);
  std::vector<util::KeyId> items(pri.size());
  for (std::size_t i = 0; i < pri.size(); ++i) {
    items[i] =
        util::KeyId{soa::descending_key(pri[i]), static_cast<std::uint32_t>(i)};
  }
  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  util::sort_key_id(items, arena);
  for (std::size_t i = 0; i + 1 < items.size(); ++i) {
    const double a = pri[items[i].id];
    const double b = pri[items[i + 1].id];
    EXPECT_TRUE(a > b || (a == b && items[i].id < items[i + 1].id))
        << "at " << i;
  }
}

TEST(KeySort, TwoKeySortMatchesLexicographicComparator) {
  util::Rng rng(17);
  for (const std::size_t n : {0u, 1u, 50u, 97u, 2048u}) {
    std::vector<util::KeyId2> items(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Few distinct primary keys force the secondary key to matter.
      items[i] = util::KeyId2{rng() % 8, rng() % 16,
                              static_cast<std::uint32_t>(i)};
    }
    std::vector<util::KeyId2> want = items;
    std::sort(want.begin(), want.end(),
              [](const util::KeyId2& a, const util::KeyId2& b) {
                if (a.k0 != b.k0) return a.k0 < b.k0;
                if (a.k1 != b.k1) return a.k1 < b.k1;
                return a.id < b.id;
              });
    util::Arena& arena = util::scratch_arena();
    const util::ArenaScope scope(arena);
    util::sort_key2_id(items, arena);
    ASSERT_EQ(items.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(items[i].k0, want[i].k0) << "n=" << n << " at " << i;
      EXPECT_EQ(items[i].k1, want[i].k1) << "n=" << n << " at " << i;
      EXPECT_EQ(items[i].id, want[i].id) << "n=" << n << " at " << i;
    }
  }
}

/// `n` distinct ids 0..n-1 in a seeded random order.
std::vector<std::uint32_t> shuffled_ids(std::size_t n, util::Rng& rng) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.bounded(i)]);
  }
  return ids;
}

TEST(KeySort, AllEqualKeysWithShuffledIdsSortById) {
  // Uniform priorities give every item the same key: the id alone orders
  // them, at the size of an hpbench batch instance.
  util::Rng rng(29);
  const std::vector<std::uint32_t> ids = shuffled_ids(100000, rng);
  std::vector<util::KeyId> items(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    items[i] = util::KeyId{soa::descending_key(0.0), ids[i]};
  }
  expect_sorted_like_comparator(std::move(items));
}

TEST(KeySort, TwoKeySortWithEqualLeadingKeyOrdersBySecondKey) {
  // All k0 equal: k1, not the id, is the next component of the order, so
  // a fallback that buckets on the id would misorder these.
  util::Rng rng(31);
  for (const std::size_t n : {96u, 97u, 5000u}) {
    const std::vector<std::uint32_t> ids = shuffled_ids(n, rng);
    std::vector<util::KeyId2> items(n);
    for (std::size_t i = 0; i < n; ++i) {
      items[i] = util::KeyId2{7, rng() % (n / 3), ids[i]};
    }
    std::vector<util::KeyId2> want = items;
    std::sort(want.begin(), want.end(),
              [](const util::KeyId2& a, const util::KeyId2& b) {
                if (a.k0 != b.k0) return a.k0 < b.k0;
                if (a.k1 != b.k1) return a.k1 < b.k1;
                return a.id < b.id;
              });
    util::Arena& arena = util::scratch_arena();
    const util::ArenaScope scope(arena);
    util::sort_key2_id(items, arena);
    ASSERT_EQ(items.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(items[i].k1, want[i].k1) << "n=" << n << " at " << i;
      ASSERT_EQ(items[i].id, want[i].id) << "n=" << n << " at " << i;
    }
  }
}

TEST(KeySort, ScratchStaysWithinStatedBytes) {
  // sort_key_id_scratch_bytes is the arena a caller sets aside for one
  // sort_key_id: the sort must never take more, and an arena whose first
  // block has that size must hold it without growing a second one. Covers
  // the std::sort cutoff, the bucket counts as n grows, and the equal-key
  // path that buckets on the id.
  util::Rng rng(37);
  for (const std::size_t n : {0u, 1u, 95u, 96u, 97u, 1000u, 4097u, 65536u,
                              100000u}) {
    for (const bool equal_keys : {false, true}) {
      std::vector<util::KeyId> items(n);
      const std::vector<std::uint32_t> ids = shuffled_ids(n, rng);
      for (std::size_t i = 0; i < n; ++i) {
        items[i] = util::KeyId{equal_keys ? 5 : rng(), ids[i]};
      }
      const std::size_t stated = util::sort_key_id_scratch_bytes(n);
      util::Arena fresh(1);
      util::sort_key_id(items, fresh);
      EXPECT_LE(fresh.high_water_bytes(), stated)
          << "n=" << n << " equal_keys=" << equal_keys;
      if (stated == 0) continue;
      util::Arena sized(stated);
      util::sort_key_id(items, sized);
      EXPECT_EQ(sized.reserved_bytes(), stated)
          << "n=" << n << " equal_keys=" << equal_keys;
    }
  }
}

}  // namespace
}  // namespace hp
