#include "src/index/block_codec.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "src/index/kernels.h"
#include "src/util/contract.h"

namespace kgoa {

namespace {

// Process-wide monotonic column id: never reused, so a stale decode-cache
// entry can never be mistaken for a block of a newer column.
std::atomic<uint64_t> g_next_column_id{1};

// Column ids occupy the key bits above the block index; 2^26 blocks cover
// the largest column a 32-bit position space can address.
constexpr uint32_t kBlockIndexBits = 26;

constexpr uint32_t kDecodeCacheSlots = 16;  // power of two

struct DecodeCacheEntry {
  uint64_t key = ~0ull;
  // 32-byte alignment: the AVX2 unpack kernels store whole vector lanes,
  // and an aligned buffer keeps every store within one cache line pair.
  alignas(32) uint32_t vals[kCodecBlockSize];
};

thread_local DecodeCacheEntry g_decode_cache[kDecodeCacheSlots];

uint32_t CacheSlot(uint64_t key) {
  return static_cast<uint32_t>((key * 0x9e3779b97f4a7c15ULL) >>
                               (64 - std::bit_width(kDecodeCacheSlots - 1)));
}

// FOR width of a block: every value fits in bit_width(max - min) bits.
uint32_t BitWidth(const BlockMeta& meta) {
  return static_cast<uint32_t>(std::bit_width(meta.max - meta.min));
}

// Bytes of a block's `count` values packed at its bit width.
uint64_t PackedBytes(const BlockMeta& meta) {
  return (static_cast<uint64_t>(meta.count) * BitWidth(meta) + 7) / 8;
}

void AppendBitPacked(const uint32_t* v, uint32_t count, uint32_t base,
                     uint32_t width, std::vector<uint8_t>& out) {
  uint64_t acc = 0;
  int bits = 0;
  for (uint32_t i = 0; i < count; ++i) {
    acc |= static_cast<uint64_t>(v[i] - base) << bits;
    bits += width;
    while (bits >= 8) {
      out.push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
      bits -= 8;
    }
  }
  if (bits > 0) out.push_back(static_cast<uint8_t>(acc));
}

}  // namespace

BlockedColumn::BlockedColumn(const uint32_t* values, uint32_t n)
    : column_id_(g_next_column_id.fetch_add(1, std::memory_order_relaxed)),
      size_(n) {
  // Directory first: a block's packed size follows from its min and max,
  // so the payload is allocated once, at its exact size.
  directory_.reserve((n + kCodecBlockSize - 1) / kCodecBlockSize);
  uint64_t payload_bytes = 0;
  for (uint32_t begin = 0; begin < n; begin += kCodecBlockSize) {
    const uint32_t count = std::min(kCodecBlockSize, n - begin);
    const auto [min_it, max_it] =
        std::minmax_element(values + begin, values + begin + count);
    BlockMeta meta;
    meta.byte_offset = payload_bytes;
    meta.min = *min_it;
    meta.max = *max_it;
    meta.count = static_cast<uint16_t>(count);
    payload_bytes += PackedBytes(meta);
    directory_.push_back(meta);
  }
  payload_.reserve(payload_bytes);
  for (uint32_t b = 0; b < num_blocks(); ++b) {
    const BlockMeta& meta = directory_[b];
    AppendBitPacked(values + b * kCodecBlockSize, meta.count, meta.min,
                    BitWidth(meta), payload_);
  }
}

uint32_t BlockedColumn::DecodeBlock(uint32_t block,
                                    std::span<uint32_t> out) const {
  KGOA_DCHECK_LT(block, num_blocks());
  // Capacity contract: a full block's worth of room even for the short
  // final block — see the header comment.
  KGOA_CHECK_GE(out.size(), kCodecBlockSize);
  const BlockMeta& meta = directory_[block];
  kernels::UnpackBits(payload_.data() + meta.byte_offset,
                      payload_.data() + payload_.size(), meta.count, meta.min,
                      BitWidth(meta), out.data());
  return meta.count;
}

const uint32_t* BlockedColumn::CachedBlock(uint32_t block) const {
  KGOA_DCHECK_LT(block, 1u << kBlockIndexBits);
  const uint64_t key = (column_id_ << kBlockIndexBits) | block;
  DecodeCacheEntry& entry = g_decode_cache[CacheSlot(key)];
  if (entry.key != key) {
    ++t_decode_cache.misses;
    DecodeBlock(block, entry.vals);
    entry.key = key;
  } else {
    ++t_decode_cache.hits;
  }
  return entry.vals;
}

uint32_t BlockedColumn::Get(uint32_t pos) const {
  KGOA_DCHECK_LT(pos, size_);
  return CachedBlock(pos / kCodecBlockSize)[pos % kCodecBlockSize];
}

uint32_t BlockedColumn::SeekGE(uint32_t from, uint32_t end, uint32_t v) const {
  KGOA_DCHECK_LE(from, end);
  KGOA_DCHECK_LE(end, size_);
  while (from < end) {
    const uint32_t block = from / kCodecBlockSize;
    const BlockMeta& meta = directory_[block];
    const uint32_t block_begin = block * kCodecBlockSize;
    const uint32_t block_end =
        std::min<uint32_t>(block_begin + meta.count, end);
    if (meta.max < v) {
      // Block-max skip: the bound covers every value in the block, so no
      // in-window value can reach v regardless of trie-node straddling.
      from = block_end;
      continue;
    }
    const uint32_t* vals = CachedBlock(block);
    const uint32_t lo = from - block_begin;
    const uint32_t offset =
        lo + kernels::LowerBoundU32(vals + lo, (block_end - block_begin) - lo, v);
    if (offset < block_end - block_begin) return block_begin + offset;
    from = block_end;
  }
  return end;
}

uint32_t BlockedColumn::SeekGT(uint32_t from, uint32_t end, uint32_t v) const {
  KGOA_DCHECK_LE(from, end);
  KGOA_DCHECK_LE(end, size_);
  while (from < end) {
    const uint32_t block = from / kCodecBlockSize;
    const BlockMeta& meta = directory_[block];
    const uint32_t block_begin = block * kCodecBlockSize;
    const uint32_t block_end =
        std::min<uint32_t>(block_begin + meta.count, end);
    if (meta.max <= v) {
      from = block_end;
      continue;
    }
    const uint32_t* vals = CachedBlock(block);
    const uint32_t lo = from - block_begin;
    const uint32_t offset =
        lo + kernels::UpperBoundU32(vals + lo, (block_end - block_begin) - lo, v);
    if (offset < block_end - block_begin) return block_begin + offset;
    from = block_end;
  }
  return end;
}

void BlockedColumn::CheckInvariants(const uint32_t* expected) const {
  uint64_t total = 0;
  uint64_t next_offset = 0;
  uint32_t vals[kCodecBlockSize];
  for (uint32_t b = 0; b < num_blocks(); ++b) {
    const BlockMeta& meta = directory_[b];
    KGOA_CHECK_EQ(meta.byte_offset, next_offset);
    KGOA_CHECK_GT(meta.count, 0u);
    KGOA_CHECK_LE(meta.count, kCodecBlockSize);
    KGOA_CHECK_LE(meta.min, meta.max);
    const uint32_t count = DecodeBlock(b, vals);
    KGOA_CHECK_EQ(count, meta.count);
    uint32_t lo = vals[0];
    uint32_t hi = vals[0];
    for (uint32_t i = 0; i < count; ++i) {
      lo = std::min(lo, vals[i]);
      hi = std::max(hi, vals[i]);
      if (expected != nullptr) {
        KGOA_CHECK_EQ(vals[i], expected[b * kCodecBlockSize + i]);
      }
    }
    KGOA_CHECK_EQ(lo, meta.min);
    KGOA_CHECK_EQ(hi, meta.max);
    next_offset += PackedBytes(meta);
    total += count;
  }
  KGOA_CHECK_EQ(total, size_);
  KGOA_CHECK_EQ(next_offset, payload_.size());
}

}  // namespace kgoa
