#include "util/key_sort.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace hp::util {

namespace {

constexpr std::size_t kMaxBucketBits = 16;
constexpr std::size_t kSmallSort = 96;     ///< below this, std::sort directly
constexpr std::size_t kInsertionMax = 40;  ///< per-bucket insertion cutoff

/// Buckets scale with n (≈ one element per bucket, capped at 2^16): the
/// counting pass touches every counter once, so a fixed 64Ki-bucket table
/// costs ~¾MB of traffic per call and dominates at the ready-list sizes the
/// DAG engines sort. The sorted result is a total order either way — bucket
/// count changes only the constant factor, never the output.
inline std::size_t bucket_bits_for(std::size_t n) noexcept {
  const auto bits = static_cast<std::size_t>(std::bit_width(n));
  return bits < kMaxBucketBits ? bits : kMaxBucketBits;
}

inline bool less_key_id(const KeyId& a, const KeyId& b) noexcept {
  return a.key != b.key ? a.key < b.key : a.id < b.id;
}

inline bool less_key2_id(const KeyId2& a, const KeyId2& b) noexcept {
  if (a.k0 != b.k0) return a.k0 < b.k0;
  if (a.k1 != b.k1) return a.k1 < b.k1;
  return a.id < b.id;
}

template <typename T, typename Less>
void insertion_sort(T* first, T* last, Less less) noexcept {
  for (T* it = first + 1; it < last; ++it) {
    const T v = *it;
    T* p = it;
    while (p > first && less(v, p[-1])) {
      *p = p[-1];
      --p;
    }
    *p = v;
  }
}

/// Right-shift that maps [lo, hi] onto [0, 2^bucket_bits): the bucket index
/// is the top bits *of the occupied key range*, not of the absolute key.
/// Packed double keys use only a narrow slice of u64 space (the exponent
/// field moves slowly), so absolute-top-bits bucketing collapses onto a few
/// hundred buckets; range scaling spreads the live range over all buckets.
inline unsigned range_shift(std::uint64_t lo, std::uint64_t hi,
                            std::size_t bucket_bits) noexcept {
  const int span_bits = 64 - std::countl_zero(hi - lo);  // hi > lo here
  return span_bits > static_cast<int>(bucket_bits)
             ? static_cast<unsigned>(span_bits - bucket_bits)
             : 0u;
}

/// One range-scaled scatter pass into n-scaled buckets, then a tiny
/// comparison sort per bucket. Stable overall order is irrelevant because
/// `less` is total (ties resolved by id), so per-bucket sorting suffices.
/// `primary` is the order's leading component and `rest` its later ones, in
/// order: when every item shares the leading component, the next one
/// decides the order, so the items are bucketed on that instead.
template <typename T, typename Less, typename Primary, typename... Rest>
void bucket_sort(std::span<T> items, Arena& arena, Less less, Primary primary,
                 Rest... rest) {
  const std::size_t n = items.size();
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = primary(items[i]);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  if (lo == hi) {
    if constexpr (sizeof...(Rest) > 0) {
      bucket_sort<T>(items, arena, less, rest...);
    } else {
      // Every component equal (repeated ids): nothing left to bucket on.
      std::sort(items.begin(), items.end(), less);
    }
    return;
  }
  const std::size_t buckets = std::size_t{1} << bucket_bits_for(n);
  const unsigned shift = range_shift(lo, hi, bucket_bits_for(n));

  const ArenaScope scope(arena);
  T* tmp = arena.alloc<T>(n);
  const std::span<std::uint32_t> starts =
      arena.alloc_zeroed<std::uint32_t>(buckets + 1);
  for (std::size_t i = 0; i < n; ++i) {
    ++starts[((primary(items[i]) - lo) >> shift) + 1];
  }
  for (std::size_t b = 0; b < buckets; ++b) starts[b + 1] += starts[b];
  std::uint32_t* fill = arena.alloc<std::uint32_t>(buckets);
  std::memcpy(fill, starts.data(), buckets * sizeof(std::uint32_t));
  for (std::size_t i = 0; i < n; ++i) {
    tmp[fill[(primary(items[i]) - lo) >> shift]++] = items[i];
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    T* first = tmp + starts[b];
    T* last = tmp + starts[b + 1];
    const auto len = static_cast<std::size_t>(last - first);
    if (len <= 1) continue;
    if (len <= kInsertionMax) {
      insertion_sort(first, last, less);
    } else {
      std::sort(first, last, less);
    }
  }
  std::memcpy(items.data(), tmp, n * sizeof(T));
}

}  // namespace

void sort_key_id(std::span<KeyId> items, Arena& arena) {
  if (items.size() < kSmallSort) {
    std::sort(items.begin(), items.end(), less_key_id);
    return;
  }
  bucket_sort<KeyId>(
      items, arena, less_key_id,
      [](const KeyId& e) noexcept { return e.key; },
      [](const KeyId& e) noexcept { return std::uint64_t{e.id}; });
}

std::size_t sort_key_id_scratch_bytes(std::size_t n) noexcept {
  if (n < kSmallSort) return 0;
  // The copy of the items, then the bucket starts and fill cursors, each
  // aligned.
  const std::size_t buckets = std::size_t{1} << bucket_bits_for(n);
  return n * sizeof(KeyId) + (2 * buckets + 1) * sizeof(std::uint32_t) +
         3 * alignof(KeyId);
}

void sort_key2_id(std::span<KeyId2> items, Arena& arena) {
  if (items.size() < kSmallSort) {
    std::sort(items.begin(), items.end(), less_key2_id);
    return;
  }
  bucket_sort<KeyId2>(
      items, arena, less_key2_id,
      [](const KeyId2& e) noexcept { return e.k0; },
      [](const KeyId2& e) noexcept { return e.k1; },
      [](const KeyId2& e) noexcept { return std::uint64_t{e.id}; });
}

}  // namespace hp::util
