#pragma once
// Integer-key sorts for the packed scheduler orderings (see model/task_soa).
//
// The hot sorts in this codebase order n packed {u64 key, u32 id} pairs
// ascending by (key, id). A comparison sort spends most of its time in
// branch mispredictions on random keys; the distribution sort here scatters
// by the top 16 key bits into 65536 buckets in one counting pass (stable),
// then finishes each bucket with a tiny (key, id) sort — for the uniform-ish
// key distributions the generators produce, buckets average a couple of
// elements, giving close to linear time. When every item shares the leading
// key (uniform priorities, for instance) the next component of the order
// decides it, so the pass buckets on that instead: k1 and then the id for
// sort_key2_id, the id for sort_key_id. All scratch comes from the arena.

#include <cstdint>
#include <span>

#include "util/arena.hpp"

namespace hp::util {

/// One sortable element: callers encode the tie-break in `id` (task id, or
/// topological position for the DAG rank orders).
struct KeyId {
  std::uint64_t key;
  std::uint32_t id;
};

/// Sort ascending by (key, id). O(n) scratch from `arena` (reclaimed before
/// returning); not in-place internally but the result lands back in `items`.
void sort_key_id(std::span<KeyId> items, Arena& arena);

/// Most arena bytes sort_key_id takes for `n` items, for a caller that
/// sizes an arena to hold the sort in one block. It follows the sort's own
/// allocations; KeySort.ScratchStaysWithinStatedBytes checks that an arena
/// of this size holds the sort without growing.
[[nodiscard]] std::size_t sort_key_id_scratch_bytes(std::size_t n) noexcept;

/// Two-level key (the varying-priority ready order): ascending (k0, k1, id).
struct KeyId2 {
  std::uint64_t k0;
  std::uint64_t k1;
  std::uint32_t id;
};

void sort_key2_id(std::span<KeyId2> items, Arena& arena);

}  // namespace hp::util
