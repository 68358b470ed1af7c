// Compressed block storage for one trie-level column of TermIds.
//
// A BlockedColumn splits a column of n values into 128-entry blocks and
// encodes every block with frame-of-reference bit-packing: each value is
// stored as (v - min) in bit_width(max - min) bits, LSB-first. Blocks whose
// values sit in a narrow band (level-1/2 columns inside a large trie node,
// sorted runs with small gaps) pack into few bits per value, and a
// constant block packs into 0 bits. With one encoding, every block decodes
// through the same branch-free fixed-stride unpack (src/index/kernels.h).
//
// A flat directory holds per-block metadata {min, max, count, byte
// offset}; a block's bit width follows from its min and max. The min/max
// bounds double as block-max skip data for seeks: a block whose max is
// below the sought value can be skipped without decoding no matter how
// the block straddles trie-node boundaries, because the bound covers
// every value in the block.
//
// Random access decodes through a small per-thread direct-mapped cache of
// decoded blocks keyed by (column id, block index) — the column id is
// allocated from a process-wide monotonic counter precisely so a cache
// entry can never alias a different column that happens to reuse a freed
// column's address.
#ifndef KGOA_INDEX_BLOCK_CODEC_H_
#define KGOA_INDEX_BLOCK_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/rdf/types.h"

namespace kgoa {

// Per-thread decoded-block cache statistics, exported into the metrics
// registry ("simd.decode_cache_*"). Thread-local for the same reason as
// IndexProbeCounters: the decode path must never touch a shared cache
// line.
struct DecodeCacheCounters {
  uint64_t hits = 0;    // CachedBlock served without decoding
  uint64_t misses = 0;  // CachedBlock had to decode (cold or evicted)

  void Reset() { *this = DecodeCacheCounters{}; }
};

inline thread_local DecodeCacheCounters t_decode_cache;

// Values per block. 128 keeps the decoded block in two cache lines'
// worth of directory strides and makes pos <-> block arithmetic shifts.
inline constexpr uint32_t kCodecBlockSize = 128;

// Per-block directory entry. 24 bytes per 128 values (~1.5 bits/value).
struct BlockMeta {
  uint64_t byte_offset = 0;  // start of the block's bytes in the payload
  TermId min = 0;            // smallest value in the block (FOR base)
  TermId max = 0;            // largest value in the block (skip bound)
  uint16_t count = 0;        // values in the block (kCodecBlockSize except last)
};

class BlockedColumn {
 public:
  BlockedColumn() = default;

  // Encodes `values[0..n)` (a column in position order). Values may be in
  // any order; sortedness only matters for the Seek* calls below.
  BlockedColumn(const uint32_t* values, uint32_t n);

  BlockedColumn(const BlockedColumn&) = delete;
  BlockedColumn& operator=(const BlockedColumn&) = delete;
  BlockedColumn(BlockedColumn&&) = default;
  BlockedColumn& operator=(BlockedColumn&&) = default;

  uint32_t size() const { return size_; }
  uint32_t num_blocks() const {
    return static_cast<uint32_t>(directory_.size());
  }
  const BlockMeta& block_meta(uint32_t block) const {
    return directory_[block];
  }

  // Value at `pos`, through the thread-local decoded-block cache.
  uint32_t Get(uint32_t pos) const;

  // Hints the encoded bytes of the block containing `pos` — what a decode
  // miss will read. Issued by batched walk loops a prefetch window ahead
  // of the corresponding Get; a hit in the decoded-block cache simply
  // ignores the hinted line.
  void PrefetchBlock(uint32_t pos) const {
    const BlockMeta& meta = directory_[pos / kCodecBlockSize];
    __builtin_prefetch(payload_.data() + meta.byte_offset, /*rw=*/0,
                       /*locality=*/1);
  }

  // Decodes block `block` into out[0..count); returns count. The span
  // must have capacity for a FULL block (contract-checked against
  // kCodecBlockSize even for a short final block): every caller that
  // decodes one block today decodes another tomorrow, and the capacity
  // contract is what lets the decode kernels and the thread-local cache
  // treat a block buffer as a fixed-size, 32-byte-alignable unit.
  uint32_t DecodeBlock(uint32_t block, std::span<uint32_t> out) const;

  // First position in [from, end) whose value is >= v. The caller must
  // guarantee values[from..end) is sorted ascending (a trie-node window);
  // blocks whose directory max is below v are skipped without decoding.
  uint32_t SeekGE(uint32_t from, uint32_t end, uint32_t v) const;

  // First position in [from, end) whose value is > v, same contract.
  uint32_t SeekGT(uint32_t from, uint32_t end, uint32_t v) const;

  // Encoded payload plus directory bytes.
  uint64_t MemoryBytes() const {
    return static_cast<uint64_t>(payload_.size()) +
           static_cast<uint64_t>(directory_.size()) * sizeof(BlockMeta);
  }

  // Full decode audit: every block round-trips, directory min/max/count
  // match the decoded values, offsets are contiguous. O(n); tests and
  // fuzz harnesses only.
  void CheckInvariants(const uint32_t* expected = nullptr) const;

 private:
  // Decoded view of `block`, served from the per-thread cache.
  const uint32_t* CachedBlock(uint32_t block) const;

  uint64_t column_id_ = 0;  // process-wide monotonic; decode-cache key
  uint32_t size_ = 0;
  std::vector<BlockMeta> directory_;
  std::vector<uint8_t> payload_;
};

}  // namespace kgoa

#endif  // KGOA_INDEX_BLOCK_CODEC_H_
