#include "model/task_soa.hpp"

#include <algorithm>
#include <cstring>

#if defined(__SSE2__) && !defined(HP_NO_SIMD)
#include <emmintrin.h>
#define HP_SOA_SSE2 1
#endif

namespace hp::soa {

void pack_descending_keys_scalar(std::span<const double> accel,
                                 std::span<std::uint64_t> out) noexcept {
  for (std::size_t i = 0; i < accel.size(); ++i) {
    out[i] = descending_key(accel[i]);
  }
}

#ifdef HP_SOA_SSE2
namespace {

// Branch-free SSE2 form of descending_key over two lanes. With s the sign
// bit of d and b the (-0-normalized) bit pattern:
//   descending_key(d) = s ? b : ~(b | signbit)
void pack_descending_keys_sse2(const double* accel, std::uint64_t* out,
                               std::size_t n) noexcept {
  const __m128i top = _mm_set1_epi64x(static_cast<long long>(1ull << 63));
  const __m128i ones = _mm_set1_epi32(-1);
  const __m128d zero = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d v = _mm_loadu_pd(accel + i);
    const __m128d is_zero = _mm_cmpeq_pd(v, zero);  // catches both ±0.0
    v = _mm_andnot_pd(is_zero, v);                  // normalize -0.0 → +0.0
    const __m128i bits = _mm_castpd_si128(v);
    // Broadcast each lane's sign bit to all 64 bits (SSE2 has no 64-bit
    // arithmetic shift; replicate the high dword and shift that).
    const __m128i hi = _mm_shuffle_epi32(bits, _MM_SHUFFLE(3, 3, 1, 1));
    const __m128i sign = _mm_srai_epi32(hi, 31);
    const __m128i neg_path = _mm_and_si128(sign, bits);
    const __m128i pos_path =
        _mm_andnot_si128(sign, _mm_xor_si128(_mm_or_si128(bits, top), ones));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_or_si128(neg_path, pos_path));
  }
  for (; i < n; ++i) out[i] = descending_key(accel[i]);
}

}  // namespace
#endif  // HP_SOA_SSE2

void pack_descending_keys(std::span<const double> accel,
                          std::span<std::uint64_t> out) noexcept {
#ifdef HP_SOA_SSE2
  pack_descending_keys_sse2(accel.data(), out.data(), accel.size());
#else
  pack_descending_keys_scalar(accel, out);
#endif
}

namespace {

/// All priorities bitwise equal. Bit compare: NaN-safe, +0/-0 distinct on
/// purpose — a false negative only costs the wider element, never
/// correctness.
bool uniform_priority_bits(std::span<const Task> tasks) noexcept {
  const std::size_t n = tasks.size();
  std::uint64_t first_bits = 0;
  if (n != 0) std::memcpy(&first_bits, &tasks[0].priority, sizeof first_bits);
  for (std::size_t i = 1; i < n; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &tasks[i].priority, sizeof bits);
    if (bits != first_bits) return false;
  }
  return true;
}

}  // namespace

SortKeys build_sort_keys(std::span<const Task> tasks, util::Arena& arena) {
  const std::size_t n = tasks.size();
  SortKeys keys;
  keys.size = n;
  // Uniformity decides the element shape, so scan it first.
  keys.uniform_priority = uniform_priority_bits(tasks);

  // Fused blockwise pass: divide into a stack block, SIMD-pack key0 over
  // it, emit the sortable elements. Block boundaries don't change the
  // result — the pack is elementwise.
  constexpr std::size_t kBlock = 512;
  double accel[kBlock];
  std::uint64_t key0[kBlock];
  if (keys.uniform_priority) {
    keys.key_id = arena.alloc<util::KeyId>(n);
    for (std::size_t base = 0; base < n; base += kBlock) {
      const std::size_t len = std::min(kBlock, n - base);
      for (std::size_t j = 0; j < len; ++j) {
        accel[j] = tasks[base + j].cpu_time / tasks[base + j].gpu_time;
      }
      pack_descending_keys({accel, len}, {key0, len});
      for (std::size_t j = 0; j < len; ++j) {
        keys.key_id[base + j] =
            util::KeyId{key0[j], static_cast<std::uint32_t>(base + j)};
      }
    }
  } else {
    keys.key2_id = arena.alloc<util::KeyId2>(n);
    for (std::size_t base = 0; base < n; base += kBlock) {
      const std::size_t len = std::min(kBlock, n - base);
      for (std::size_t j = 0; j < len; ++j) {
        accel[j] = tasks[base + j].cpu_time / tasks[base + j].gpu_time;
      }
      pack_descending_keys({accel, len}, {key0, len});
      for (std::size_t j = 0; j < len; ++j) {
        const std::uint64_t k = ordered_key(tasks[base + j].priority);
        keys.key2_id[base + j] =
            util::KeyId2{key0[j], accel[j] >= 1.0 ? ~k : k,
                         static_cast<std::uint32_t>(base + j)};
      }
    }
  }
  return keys;
}

TaskSoA build_task_soa(std::span<const Task> tasks, util::Arena& arena) {
  const std::size_t n = tasks.size();
  double* cpu = arena.alloc<double>(n);
  double* gpu = arena.alloc<double>(n);
  double* accel = arena.alloc<double>(n);
  double* priority = arena.alloc<double>(n);
  auto* key0 = arena.alloc<std::uint64_t>(n);
  auto* key1 = arena.alloc<std::uint64_t>(n);

  // De-interleave the AoS records once; every later pass is contiguous.
  for (std::size_t i = 0; i < n; ++i) {
    cpu[i] = tasks[i].cpu_time;
    gpu[i] = tasks[i].gpu_time;
    priority[i] = tasks[i].priority;
  }
  for (std::size_t i = 0; i < n; ++i) accel[i] = cpu[i] / gpu[i];

  pack_descending_keys({accel, n}, {key0, n});

  // key1 direction flips with rho >= 1 (§2.2). Within a key0 tie group rho
  // is bit-identical, so the direction agrees across the group and the
  // packed compare matches the reference comparator.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = ordered_key(priority[i]);
    key1[i] = accel[i] >= 1.0 ? ~k : k;
  }

  TaskSoA soa;
  soa.cpu = {cpu, n};
  soa.gpu = {gpu, n};
  soa.accel = {accel, n};
  soa.priority = {priority, n};
  soa.key0 = {key0, n};
  soa.key1 = {key1, n};
  soa.uniform_priority = uniform_priority_bits(tasks);
  return soa;
}

}  // namespace hp::soa
