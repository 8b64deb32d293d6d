#pragma once
// Structure-of-arrays task layout for the scheduling hot paths.
//
// The engines decide with four scalars per task (p_i, q_i, rho_i, priority),
// but the AoS `Task` record interleaves them, so every pass over the ready
// set drags the whole 32-byte struct through the cache and re-derives the
// division p/q per comparison. `TaskSoA` splits the records into parallel
// flat arrays (durations, acceleration, priority) built in one batched pass
// from a per-run arena, and additionally materializes the *ready-queue order*
// as packed 64-bit integer keys so sorting and queue maintenance compare
// plain integers instead of branching over two doubles.
//
// Key packing. `ordered_key` maps a non-NaN double to a u64 whose unsigned
// order equals the double order (sign bit flipped for positives, all bits
// flipped for negatives; -0.0 normalized to +0.0 first so bitwise equality
// matches `==`). Then
//     key0 = ~ordered_key(rho)        — non-increasing acceleration
//     key1 = rho >= 1 ? ~ordered_key(priority) : ordered_key(priority)
// reproduces the §2.2 queue comparator exactly: key1 only matters when key0
// ties, and a key0 tie means bit-identical rho, hence the same >= 1 branch
// on both sides. The final id tie-break comes from sort stability (or an
// explicit id compare).

#include <bit>
#include <cstdint>
#include <span>

#include "model/platform.hpp"
#include "model/task.hpp"
#include "util/arena.hpp"
#include "util/key_sort.hpp"

namespace hp::soa {

/// Monotone u64 image of a double: for non-NaN a, b
///     a < b   iff  ordered_key(a) < ordered_key(b)
///     a == b  iff  ordered_key(a) == ordered_key(b)   (+0.0 == -0.0 holds)
[[nodiscard]] inline std::uint64_t ordered_key(double d) noexcept {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(d == 0.0 ? 0.0 : d);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Key that sorts doubles in descending order when compared ascending.
[[nodiscard]] inline std::uint64_t descending_key(double d) noexcept {
  return ~ordered_key(d);
}

/// Parallel flat arrays over one task set, all arena-backed. Spans stay
/// valid until the arena is rewound past the build point (one run).
struct TaskSoA {
  std::span<const double> cpu;       ///< p_i
  std::span<const double> gpu;       ///< q_i
  std::span<const double> accel;     ///< rho_i = p_i / q_i
  std::span<const double> priority;  ///< offline priority
  /// Packed ready-order keys: ascending (key0, key1, id) order is exactly
  /// the §2.2 queue order (GPU end first).
  std::span<const std::uint64_t> key0;
  std::span<const std::uint64_t> key1;
  /// All priorities bitwise equal (the common generator output): key1 is
  /// then constant within every key0 tie group, so single-key sorts with a
  /// stable id tie-break reproduce the full order.
  bool uniform_priority = false;

  [[nodiscard]] std::size_t size() const noexcept { return cpu.size(); }

  [[nodiscard]] double time_on(TaskId t, Resource r) const noexcept {
    const auto i = static_cast<std::size_t>(t);
    return r == Resource::kCpu ? cpu[i] : gpu[i];
  }
};

/// Split `tasks` into arena-backed parallel arrays and compute the packed
/// ready keys in batched passes over contiguous spans.
[[nodiscard]] TaskSoA build_task_soa(std::span<const Task> tasks,
                                     util::Arena& arena);

/// Just the ready-order sort keys, one element per task, ids preloaded with
/// the task index. The independent fast path never reads the flat duration
/// arrays (it gathers from the AoS records in queue order instead), so this
/// skips them entirely: one fused blockwise pass over the AoS computes
/// rho = p/q, packs key0 (SIMD), and emits sortable elements directly —
/// roughly half the memory traffic of build_task_soa + a separate key copy.
/// The key arithmetic is bit-identical to build_task_soa's.
struct SortKeys {
  util::KeyId* key_id = nullptr;    ///< uniform priorities: (key0, id)
  util::KeyId2* key2_id = nullptr;  ///< varying: (key0, key1, id)
  std::size_t size = 0;
  bool uniform_priority = true;     ///< selects which array is populated
};

[[nodiscard]] SortKeys build_sort_keys(std::span<const Task> tasks,
                                       util::Arena& arena);

/// Batched key0 pack: out[i] = descending_key(accel[i]). Exposed separately
/// for the SIMD micro-benchmark; uses the SSE2 path when it is compiled in.
void pack_descending_keys(std::span<const double> accel,
                          std::span<std::uint64_t> out) noexcept;

/// Scalar reference for pack_descending_keys (micro-benchmark baseline).
void pack_descending_keys_scalar(std::span<const double> accel,
                                 std::span<std::uint64_t> out) noexcept;

}  // namespace hp::soa
