// Differential tests for the SIMD kernel layer (src/index/kernels.h).
//
// Every kernel is a pure function of its inputs, so the suites here run
// identical inputs through every dispatch level the host CPU supports
// (scalar always; AVX2 when available) and require bit-identical outputs
// — the scalar path is the reference. Inputs are adversarial for the
// codec: constant blocks (0-bit FOR), max-width values, outliers that
// widen a narrow block, and the short final block around the 128-value
// boundary.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/block_codec.h"
#include "src/index/kernels.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace kgoa {
namespace {

// All dispatch levels exercisable on this host, scalar first (the
// reference the others are diffed against).
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (MaxSupportedSimdLevel() == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

// Restores the entry dispatch level on scope exit, so a failing test
// cannot leak a forced level into later tests in the same process.
class ScopedSimdLevel {
 public:
  ScopedSimdLevel() : saved_(CurrentSimdLevel()) {}
  ~ScopedSimdLevel() { SetSimdLevel(saved_); }

 private:
  SimdLevel saved_;
};

// Reference LSB-first bit-packer — mirrors the BlockedColumn encoder so
// UnpackBits can be driven at widths the encoder would never choose for
// a given value set.
std::vector<uint8_t> PackBits(const std::vector<uint32_t>& deltas,
                              uint32_t width) {
  std::vector<uint8_t> out;
  uint64_t acc = 0;
  int bits = 0;
  for (const uint32_t d : deltas) {
    acc |= static_cast<uint64_t>(d) << bits;
    bits += static_cast<int>(width);
    while (bits >= 8) {
      out.push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
      bits -= 8;
    }
  }
  if (bits > 0) out.push_back(static_cast<uint8_t>(acc));
  return out;
}

TEST(KernelsUnpackBits, AllWidthsAllLevelsMatchScalar) {
  ScopedSimdLevel guard;
  Rng rng(11);
  // Counts straddle the block size and the AVX2 8-lane group boundary.
  const uint32_t counts[] = {0, 1, 7, 8, 9, 31, 64, 127, 128};
  for (uint32_t width = 0; width <= 32; ++width) {
    const uint64_t mask = width == 32 ? ~0ull : ((1ull << width) - 1);
    for (const uint32_t count : counts) {
      std::vector<uint32_t> deltas(count);
      for (uint32_t& d : deltas) {
        d = static_cast<uint32_t>(rng.Next() & mask);
      }
      // Max-width adversary: saturate a few lanes so every bit matters.
      if (count > 2) {
        deltas[0] = static_cast<uint32_t>(mask);
        deltas[count / 2] = static_cast<uint32_t>(mask);
      }
      const std::vector<uint8_t> packed = PackBits(deltas, width);
      const uint32_t base = static_cast<uint32_t>(rng.Below(1u << 20));

      std::vector<uint32_t> expected(count);
      SetSimdLevel(SimdLevel::kScalar);
      kernels::UnpackBits(packed.data(), packed.data() + packed.size(),
                          count, base, width, expected.data());
      for (uint32_t i = 0; i < count; ++i) {
        ASSERT_EQ(expected[i], base + deltas[i])
            << "scalar reference wrong at width " << width << " i " << i;
      }
      for (const SimdLevel level : SupportedLevels()) {
        SetSimdLevel(level);
        std::vector<uint32_t> got(count, 0xdeadbeef);
        kernels::UnpackBits(packed.data(), packed.data() + packed.size(),
                            count, base, width, got.data());
        ASSERT_EQ(got, expected)
            << "level " << SimdLevelName(level) << " width " << width
            << " count " << count;
      }
    }
  }
}

// The AVX2 unpack reads 32-byte windows and must fall back to scalar
// extraction near the end of the readable buffer. A payload that ends
// exactly at the packed bytes (no slack) exercises the overread guard.
TEST(KernelsUnpackBits, TightPayloadEndDoesNotOverread) {
  ScopedSimdLevel guard;
  for (uint32_t width : {1u, 3u, 7u, 13u, 24u, 32u}) {
    std::vector<uint32_t> deltas(128);
    const uint64_t mask = width == 32 ? ~0ull : ((1ull << width) - 1);
    for (uint32_t i = 0; i < deltas.size(); ++i) {
      deltas[i] = static_cast<uint32_t>((i * 2654435761u) & mask);
    }
    const std::vector<uint8_t> tight = PackBits(deltas, width);
    for (const SimdLevel level : SupportedLevels()) {
      SetSimdLevel(level);
      std::vector<uint32_t> got(deltas.size());
      kernels::UnpackBits(tight.data(), tight.data() + tight.size(),
                          static_cast<uint32_t>(deltas.size()), 5, width,
                          got.data());
      for (uint32_t i = 0; i < deltas.size(); ++i) {
        ASSERT_EQ(got[i], 5 + deltas[i])
            << "level " << SimdLevelName(level) << " width " << width;
      }
    }
  }
}

// End-to-end decode differential through the real encoder: every block of
// a BlockedColumn decodes bit-identically at every level, over value
// shapes that span the bit widths the encoder picks.
TEST(KernelsDecode, BlockedColumnDecodesIdenticallyAcrossLevels) {
  ScopedSimdLevel guard;
  Rng rng(31);
  // 129 forces a 1-value final block; 4096 is many full blocks.
  const uint32_t sizes[] = {1, 127, 128, 129, 255, 1000, 4096};
  for (const uint32_t n : sizes) {
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<uint32_t> values(n);
      uint32_t running = 7;
      for (uint32_t i = 0; i < n; ++i) {
        switch (shape) {
          case 0:  // constant: 0-bit FOR
            values[i] = 42;
            break;
          case 1:  // wide random: max-width packing
            values[i] = static_cast<uint32_t>(rng.Next());
            break;
          case 2:  // sorted small gaps: narrow bit-packed widths
            running += static_cast<uint32_t>(rng.Below(4));
            values[i] = running;
            break;
          default:  // narrow with rare outliers: wide FOR blocks
            values[i] = rng.Below(50) == 0
                            ? (1u << 30) + static_cast<uint32_t>(rng.Below(9))
                            : static_cast<uint32_t>(rng.Below(16));
            break;
        }
      }
      const BlockedColumn col(values.data(), n);
      alignas(32) uint32_t reference[kCodecBlockSize];
      alignas(32) uint32_t got[kCodecBlockSize];
      for (uint32_t b = 0; b < col.num_blocks(); ++b) {
        SetSimdLevel(SimdLevel::kScalar);
        const uint32_t count = col.DecodeBlock(b, reference);
        for (uint32_t i = 0; i < count; ++i) {
          ASSERT_EQ(reference[i], values[b * kCodecBlockSize + i]);
        }
        for (const SimdLevel level : SupportedLevels()) {
          SetSimdLevel(level);
          std::fill(got, got + kCodecBlockSize, 0xdeadbeef);
          ASSERT_EQ(col.DecodeBlock(b, got), count);
          for (uint32_t i = 0; i < count; ++i) {
            ASSERT_EQ(got[i], reference[i])
                << "level " << SimdLevelName(level) << " n " << n
                << " shape " << shape << " block " << b << " i " << i;
          }
        }
      }
    }
  }
}

TEST(KernelsLowerBound, MatchesStdAcrossLevelsAndWindowBoundaries) {
  ScopedSimdLevel guard;
  Rng rng(47);
  // Sizes bracket the AVX2 final-window width (128) and straddle its
  // 8-lane sweep.
  const uint32_t sizes[] = {0,  1,  2,   31,  32,  33,  64,
                            96, 127, 128, 129, 200, 300, 1000};
  for (const uint32_t n : sizes) {
    std::vector<uint32_t> vals(n);
    uint32_t running = 0;
    for (uint32_t i = 0; i < n; ++i) {
      running += static_cast<uint32_t>(rng.Below(5));  // duplicates likely
      vals[i] = running;
    }
    for (int probe = 0; probe < 64; ++probe) {
      uint32_t v;
      switch (probe % 4) {
        case 0:
          v = 0;
          break;
        case 1:
          v = running + 1;  // past the end
          break;
        default:
          v = n == 0 ? static_cast<uint32_t>(rng.Below(100))
                     : vals[rng.Below(n)] + static_cast<uint32_t>(
                                                rng.Below(3)) - 1;
          break;
      }
      const uint32_t expected_lb = static_cast<uint32_t>(
          std::lower_bound(vals.begin(), vals.end(), v) - vals.begin());
      const uint32_t expected_ub = static_cast<uint32_t>(
          std::upper_bound(vals.begin(), vals.end(), v) - vals.begin());
      for (const SimdLevel level : SupportedLevels()) {
        SetSimdLevel(level);
        ASSERT_EQ(kernels::LowerBoundU32(vals.data(), n, v), expected_lb)
            << "level " << SimdLevelName(level) << " n " << n << " v " << v;
        ASSERT_EQ(kernels::UpperBoundU32(vals.data(), n, v), expected_ub)
            << "level " << SimdLevelName(level) << " n " << n << " v " << v;
      }
    }
  }
}

TEST(KernelsLowerBoundStrided, MatchesDenseReference) {
  ScopedSimdLevel guard;
  Rng rng(53);
  const uint32_t stride = 3;  // one component of a sorted Triple run
  for (const uint32_t n : {0u, 1u, 7u, 8u, 9u, 100u, 1000u}) {
    std::vector<uint32_t> dense(n);
    std::vector<uint32_t> strided(n * stride, 0xabababab);
    uint32_t running = 0;
    for (uint32_t i = 0; i < n; ++i) {
      running += static_cast<uint32_t>(rng.Below(4));
      dense[i] = running;
      strided[i * stride] = running;
    }
    for (int probe = 0; probe < 64; ++probe) {
      const uint32_t v = n == 0 ? static_cast<uint32_t>(rng.Below(10))
                                : dense[rng.Below(n)] +
                                      static_cast<uint32_t>(rng.Below(3)) - 1;
      const uint32_t expected_lb = static_cast<uint32_t>(
          std::lower_bound(dense.begin(), dense.end(), v) - dense.begin());
      const uint32_t expected_ub = static_cast<uint32_t>(
          std::upper_bound(dense.begin(), dense.end(), v) - dense.begin());
      for (const SimdLevel level : SupportedLevels()) {
        SetSimdLevel(level);
        ASSERT_EQ(
            kernels::LowerBoundStridedU32(strided.data(), stride, n, v),
            expected_lb)
            << "level " << SimdLevelName(level) << " n " << n << " v " << v;
        ASSERT_EQ(
            kernels::UpperBoundStridedU32(strided.data(), stride, n, v),
            expected_ub)
            << "level " << SimdLevelName(level) << " n " << n << " v " << v;
      }
    }
  }
}

// PrefetchPipeline contract: every index is prefetched exactly once and
// consumed exactly once, consumption strictly ordered, and no prefetch
// lags its consume.
TEST(KernelsPrefetchPipeline, EveryIndexPrefetchedBeforeConsume) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{3},
                              kernels::kProbePrefetchDepth,
                              std::size_t{50}}) {
    std::vector<int> prefetched(n, 0);
    std::vector<int> consumed(n, 0);
    std::size_t next = 0;
    kernels::PrefetchPipeline(
        n, [&](std::size_t i) { ++prefetched[i]; },
        [&](std::size_t i) {
          ASSERT_EQ(i, next++);
          ASSERT_EQ(prefetched[i], 1) << "consume before prefetch at " << i;
          ++consumed[i];
        });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(prefetched[i], 1);
      ASSERT_EQ(consumed[i], 1);
    }
  }
}

}  // namespace
}  // namespace kgoa
