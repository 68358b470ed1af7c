// Fuzz harness for the compressed block codec (src/index/block_codec.h).
//
// Decodes the input bytes into a column of values whose shape spans the
// frame-of-reference bit widths (narrow bands, sorted runs, outliers,
// wide randoms), then:
//
//   * encodes and decodes the whole column, checking every value
//     round-trips and the block directory invariants hold
//     (decode-what-you-encode);
//   * sorts the column and checks SeekGE/SeekGT over random windows
//     against a linear scan of the sorted raw values, exercising the
//     block-max skip across windows that straddle block boundaries.
//
// Every input runs through BOTH kernel dispatch levels — forced scalar
// and the highest level the host CPU supports — and the decoded blocks
// are compared bit for bit, so the fuzzer doubles as a differential
// harness for the SIMD decode kernels (src/index/kernels.h).
//
// Any disagreement aborts via KGOA_CHECK.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/index/block_codec.h"
#include "src/util/contract.h"
#include "src/util/simd.h"

namespace {

// Decodes every block at the given dispatch level into one flat vector.
std::vector<uint32_t> DecodeAll(const kgoa::BlockedColumn& col,
                                kgoa::SimdLevel level) {
  kgoa::SetSimdLevel(level);
  std::vector<uint32_t> out;
  out.reserve(col.size());
  alignas(32) uint32_t vals[kgoa::kCodecBlockSize];
  for (uint32_t b = 0; b < col.num_blocks(); ++b) {
    const uint32_t count = col.DecodeBlock(b, vals);
    out.insert(out.end(), vals, vals + count);
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  if (size < 4) return 0;
  std::size_t pos = 0;
  auto byte = [&]() -> uint32_t {
    return pos < size ? static_cast<uint32_t>(data[pos++]) : 0u;
  };
  auto word = [&]() -> uint32_t {
    return byte() | (byte() << 8) | (byte() << 16) | (byte() << 24);
  };

  // Column length spans the interesting boundaries: empty, partial last
  // block, exact multiples of the 128-value block size.
  const uint32_t n = word() % 1500;
  const uint32_t shape = byte() % 4;
  const uint32_t base = word();
  std::vector<uint32_t> values(n);
  uint32_t running = base % (1u << 20);
  for (uint32_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // narrow band around a fuzzed base
        values[i] = (base % (1u << 24)) + byte() % 32;
        break;
      case 1:  // sorted run with fuzzed gaps
        running += byte() % 9;
        values[i] = running;
        break;
      case 2:  // mostly narrow with fuzzed outliers (FOR poison)
        values[i] = byte() == 0 ? word() : byte() % 64;
        break;
      default:  // raw fuzzed words
        values[i] = word();
        break;
    }
  }

  // Decode-what-you-encode: full directory + payload audit against the
  // source values, then point reads through the decode cache.
  const kgoa::BlockedColumn col(values.data(), n);
  KGOA_CHECK(col.size() == n);
  col.CheckInvariants(values.data());
  for (uint32_t i = 0; i < n; ++i) {
    KGOA_CHECK(col.Get(i) == values[i]);
  }

  // Scalar-vs-SIMD differential: both dispatch levels must decode the
  // column to exactly the source values.
  const kgoa::SimdLevel entry_level = kgoa::CurrentSimdLevel();
  const std::vector<uint32_t> scalar =
      DecodeAll(col, kgoa::SimdLevel::kScalar);
  const std::vector<uint32_t> vectorized =
      DecodeAll(col, kgoa::MaxSupportedSimdLevel());
  KGOA_CHECK(scalar == values);
  KGOA_CHECK(vectorized == scalar);
  kgoa::SetSimdLevel(entry_level);

  if (n == 0) return 0;

  // SeekGE/SeekGT vs linear scan on the sorted column.
  std::sort(values.begin(), values.end());
  const kgoa::BlockedColumn sorted(values.data(), n);
  for (int probe = 0; probe < 32; ++probe) {
    uint32_t from = word() % (n + 1);
    uint32_t end = word() % (n + 1);
    if (from > end) std::swap(from, end);
    // Bias the sought value toward the column's range so seeks actually
    // land inside windows, with occasional raw words for the extremes.
    const uint32_t v = (probe % 4 == 0)
                           ? word()
                           : values[word() % n] + byte() % 3 - 1;
    uint32_t linear_ge = end;
    for (uint32_t i = from; i < end; ++i) {
      if (values[i] >= v) {
        linear_ge = i;
        break;
      }
    }
    uint32_t linear_gt = end;
    for (uint32_t i = from; i < end; ++i) {
      if (values[i] > v) {
        linear_gt = i;
        break;
      }
    }
    // Both dispatch levels of the in-block lower-bound kernel must agree
    // with the linear scan.
    for (const kgoa::SimdLevel level :
         {kgoa::SimdLevel::kScalar, kgoa::MaxSupportedSimdLevel()}) {
      kgoa::SetSimdLevel(level);
      KGOA_CHECK(sorted.SeekGE(from, end, v) == linear_ge);
      KGOA_CHECK(sorted.SeekGT(from, end, v) == linear_gt);
    }
    kgoa::SetSimdLevel(entry_level);
  }
  return 0;
}
