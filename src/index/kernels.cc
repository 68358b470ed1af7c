#include "src/index/kernels.h"

#include <cstddef>

#include "src/util/contract.h"

// The only translation unit (with src/util/simd.h's implementation notes)
// allowed to touch raw intrinsics — scripts/kgoa_lint.py `raw-intrinsic`.
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define KGOA_KERNELS_X86 1
#else
#define KGOA_KERNELS_X86 0
#endif

namespace kgoa {
namespace kernels {
namespace {

// ---------------------------------------------------------------------------
// Frame-of-reference bit-unpack
// ---------------------------------------------------------------------------

// Portable baseline: byte-refill accumulator, identical to the pre-kernel
// BlockedColumn::DecodeBlock loop. Decodes values [first, count), assuming
// the stream starts at bit 0 of `in` — the vector paths use it as their
// tail once an overread guard trips.
void UnpackBitsScalarFrom(const uint8_t* in, uint32_t first, uint32_t count,
                          uint32_t base, uint32_t width, uint32_t* out) {
  if (width == 0) {
    for (uint32_t i = first; i < count; ++i) out[i] = base;
    return;
  }
  const uint64_t mask = width >= 32 ? 0xffffffffULL : ((1ULL << width) - 1);
  const uint64_t bitpos = static_cast<uint64_t>(first) * width;
  const uint8_t* p = in + (bitpos >> 3);
  const int skip = static_cast<int>(bitpos & 7);
  uint64_t acc = 0;
  int bits = 0;
  if (skip != 0) {
    acc = static_cast<uint64_t>(*p++) >> skip;
    bits = 8 - skip;
  }
  for (uint32_t i = first; i < count; ++i) {
    while (bits < static_cast<int>(width)) {
      acc |= static_cast<uint64_t>(*p++) << bits;
      bits += 8;
    }
    out[i] = base + static_cast<uint32_t>(acc & mask);
    acc >>= width;
    bits -= width;
  }
}

#if KGOA_KERNELS_X86

// AVX2 path: with LSB-first packing, every group of 8 w-bit values is
// byte-aligned (8w bits = w bytes), so group g starts at byte g*w. One
// unaligned 32-byte load covers the group (8w bits <= 256); each value's
// bits land in at most two adjacent dwords, selected per value with
// permutevar8x32 into a 64-bit lane, shifted right by (j*w & 31) and
// masked. Groups whose 32-byte load would cross `in_end` fall back to the
// scalar tail.
__attribute__((target("avx2"))) void UnpackBitsAvx2(
    const uint8_t* in, const uint8_t* in_end, uint32_t count, uint32_t base,
    uint32_t width, uint32_t* out) {
  if (width == 0) {
    for (uint32_t i = 0; i < count; ++i) out[i] = base;
    return;
  }
  const uint32_t w = width;
  const uint64_t mask64 = w >= 32 ? 0xffffffffULL : ((1ULL << w) - 1);
  alignas(32) uint32_t perm_lo[8];
  alignas(32) uint32_t perm_hi[8];
  alignas(32) uint64_t shift_lo[4];
  alignas(32) uint64_t shift_hi[4];
  for (uint32_t j = 0; j < 4; ++j) {
    const uint32_t bit_l = j * w;
    const uint32_t bit_h = (j + 4) * w;
    // The d+1 clamp is only reached by (j=7, w=32), whose value sits
    // wholly in dword 7 (shift 0, width 32): the clamped lane is masked
    // away.
    perm_lo[2 * j] = bit_l >> 5;
    perm_lo[2 * j + 1] = std::min<uint32_t>((bit_l >> 5) + 1, 7);
    perm_hi[2 * j] = bit_h >> 5;
    perm_hi[2 * j + 1] = std::min<uint32_t>((bit_h >> 5) + 1, 7);
    shift_lo[j] = bit_l & 31;
    shift_hi[j] = bit_h & 31;
  }
  const __m256i vperm_lo =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(perm_lo));
  const __m256i vperm_hi =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(perm_hi));
  const __m256i vshift_lo =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(shift_lo));
  const __m256i vshift_hi =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(shift_hi));
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask64));
  const __m256i vbase = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i collect = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);

  const std::size_t avail = static_cast<std::size_t>(in_end - in);
  const uint32_t groups = count / 8;
  uint32_t g = 0;
  for (; g < groups; ++g) {
    const std::size_t off = static_cast<std::size_t>(g) * w;
    if (off + 32 > avail) break;  // 32-byte load would overread the payload
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + off));
    __m256i q0 = _mm256_permutevar8x32_epi32(v, vperm_lo);
    __m256i q1 = _mm256_permutevar8x32_epi32(v, vperm_hi);
    q0 = _mm256_and_si256(_mm256_srlv_epi64(q0, vshift_lo), vmask);
    q1 = _mm256_and_si256(_mm256_srlv_epi64(q1, vshift_hi), vmask);
    // Low dwords of the four 64-bit lanes -> lanes 0..3 of each half.
    const __m128i lo = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(q0, collect));
    const __m128i hi = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(q1, collect));
    const __m256i vals =
        _mm256_add_epi32(_mm256_set_m128i(hi, lo), vbase);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + g * 8), vals);
  }
  if (g * 8 < count) UnpackBitsScalarFrom(in, g * 8, count, base, w, out);
}

#endif  // KGOA_KERNELS_X86

// ---------------------------------------------------------------------------
// Branchless sorted search
// ---------------------------------------------------------------------------

// Portable baseline: exactly the pre-kernel behavior (std::lower_bound
// over the window), so the KGOA_SIMD=off ablation measures the true
// before/after and non-x86 builds are unaffected.
uint32_t LowerBoundScalar(const uint32_t* vals, uint32_t n, uint32_t v) {
  return static_cast<uint32_t>(std::lower_bound(vals, vals + n, v) - vals);
}

uint32_t LowerBoundStridedScalar(const uint32_t* base, uint32_t stride,
                                 uint32_t n, uint32_t v) {
  uint32_t lo = 0;
  uint32_t len = n;
  while (len > 0) {
    const uint32_t half = len / 2;
    if (base[static_cast<std::size_t>(lo + half) * stride] < v) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return lo;
}

#if KGOA_KERNELS_X86

// Vector tail size: narrow with cmov steps until the window fits a
// handful of vector compares, then count elements < v branchlessly
// (sortedness makes the count the lower-bound index).
constexpr uint32_t kVectorSearchWindow = 128;

__attribute__((target("avx2"))) uint32_t LowerBoundAvx2(const uint32_t* vals,
                                                        uint32_t n,
                                                        uint32_t v) {
  const uint32_t* base = vals;
  uint32_t len = n;
  while (len > kVectorSearchWindow) {
    const uint32_t half = len / 2;
    base += (base[half - 1] < v) ? half : 0;
    len -= half;
  }
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i pivot =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(v)), bias);
  uint32_t count = 0;
  uint32_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + i)), bias);
    const __m256i lt = _mm256_cmpgt_epi32(pivot, x);
    count += static_cast<uint32_t>(
        __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(lt))));
  }
  for (; i < len; ++i) count += base[i] < v;
  return static_cast<uint32_t>(base - vals) + count;
}

// Strided AVX2: gather 8 level keys (stride 3 dwords apart in the raw
// triple array) per step once the cmov prologue narrowed the window.
__attribute__((target("avx2"))) uint32_t LowerBoundStridedAvx2(
    const uint32_t* base, uint32_t stride, uint32_t n, uint32_t v) {
  uint32_t lo = 0;
  uint32_t len = n;
  while (len > 64) {
    const uint32_t half = len / 2;
    lo += (base[static_cast<std::size_t>(lo + half - 1) * stride] < v) ? half
                                                                       : 0;
    len -= half;
  }
  const int s = static_cast<int>(stride);
  const __m256i vidx =
      _mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i pivot =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(v)), bias);
  uint32_t count = 0;
  uint32_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i x = _mm256_xor_si256(
        _mm256_i32gather_epi32(
            reinterpret_cast<const int*>(
                base + static_cast<std::size_t>(lo + i) * stride),
            vidx, 4),
        bias);
    const __m256i lt = _mm256_cmpgt_epi32(pivot, x);
    count += static_cast<uint32_t>(
        __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(lt))));
  }
  for (; i < len; ++i) {
    count += base[static_cast<std::size_t>(lo + i) * stride] < v;
  }
  return lo + count;
}

#endif  // KGOA_KERNELS_X86

}  // namespace

void UnpackBits(const uint8_t* in, [[maybe_unused]] const uint8_t* in_end,
                uint32_t count, uint32_t base, uint32_t width,
                uint32_t* out) {
  KGOA_DCHECK_LE(width, 32u);
#if KGOA_KERNELS_X86
  if (CurrentSimdLevel() == SimdLevel::kAvx2) {
    UnpackBitsAvx2(in, in_end, count, base, width, out);
    return;
  }
#endif
  UnpackBitsScalarFrom(in, 0, count, base, width, out);
}

uint32_t LowerBoundU32(const uint32_t* vals, uint32_t n, uint32_t v) {
#if KGOA_KERNELS_X86
  if (CurrentSimdLevel() == SimdLevel::kAvx2) {
    return LowerBoundAvx2(vals, n, v);
  }
#endif
  return LowerBoundScalar(vals, n, v);
}

uint32_t UpperBoundU32(const uint32_t* vals, uint32_t n, uint32_t v) {
  // upper_bound(v) == lower_bound(v + 1) for unsigned keys; v = 2^32 - 1
  // has no successor, and every key is <= it.
  if (v == 0xffffffffu) return n;
  return LowerBoundU32(vals, n, v + 1);
}

uint32_t LowerBoundStridedU32(const uint32_t* base, uint32_t stride,
                              uint32_t n, uint32_t v) {
  KGOA_DCHECK_GT(stride, 0u);
#if KGOA_KERNELS_X86
  if (CurrentSimdLevel() == SimdLevel::kAvx2) {
    return LowerBoundStridedAvx2(base, stride, n, v);
  }
#endif
  return LowerBoundStridedScalar(base, stride, n, v);
}

uint32_t UpperBoundStridedU32(const uint32_t* base, uint32_t stride,
                              uint32_t n, uint32_t v) {
  if (v == 0xffffffffu) return n;
  return LowerBoundStridedU32(base, stride, n, v + 1);
}

}  // namespace kernels
}  // namespace kgoa
