// Sorted-array trie index over the triples of a graph, for one component
// order. This is the paper's index representation for CTJ and Audit Join
// (section V-A): a flat std::vector sorted lexicographically, where each
// trie "node" is a contiguous range. On top of the sorted array the index
// keeps a CSR-style level-0 offset array (one slot per dictionary term),
// so level-0 Narrow/BlockEnd and the distinct level-0 count are O(1);
// deeper levels use galloping seeks that cost O(log d) for a hop of
// distance d instead of O(log |range|).
//
// The index has two storage tiers behind the same position-space
// contract. The raw tier keeps the sorted Triple array itself. The block
// tier (CompressToBlockTier) re-stores each level as an independently
// compressed BlockedColumn of 128-entry blocks (frame-of-reference
// bit-packing at each block's exact bit width) and frees the raw array;
// Narrow/SeekGE/BlockEnd then run on the block directory (block-max
// skipping in place of galloping) and return the exact same positions,
// so every engine above — and the estimates they produce — is
// bit-identical across tiers.
#ifndef KGOA_INDEX_TRIE_INDEX_H_
#define KGOA_INDEX_TRIE_INDEX_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/index/block_codec.h"
#include "src/index/order.h"
#include "src/rdf/types.h"
#include "src/util/contract.h"

namespace kgoa {

// Half-open range of positions in the sorted triple array.
struct Range {
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }

  friend bool operator==(const Range&, const Range&) = default;
};

// Which physical representation backs the sorted position space.
enum class StorageTier : uint8_t { kRaw = 0, kBlock = 1 };

inline constexpr const char* StorageTierName(StorageTier tier) {
  return tier == StorageTier::kRaw ? "raw" : "block";
}

class OrderDelta;

class TrieIndex {
 public:
  // Copies and radix-sorts `triples` under `order`. Input may be in any
  // order but must be duplicate-free (Graph guarantees this).
  TrieIndex(IndexOrder order, const std::vector<Triple>& triples);

  // Adopts `sorted`, which must already be sorted under `order`, and
  // builds the level-0 offsets. `num_terms` must exceed every TermId in
  // `sorted` (the dictionary size). O(n + num_terms); used by IndexSet's
  // chained radix build, which derives each order with one counting pass.
  TrieIndex(IndexOrder order, std::vector<Triple> sorted, uint32_t num_terms);

  // Overlay VIEW: merges `base` with `delta` (adds + tombstones) into the
  // rank-defined merged position space of DESIGN.md §13, without copying
  // any base storage. Every accessor answers as a from-scratch rebuild of
  // the merged triple set would, position for position. A merged position
  // maps to its add or base position in O(1) (delta.h), and level-0 ranges
  // come from the base hash table shifted by the delta, so seeks and
  // narrows are the owning tier's searches with one O(1) mapping per
  // probe. `base` and `delta` must outlive the view (GraphVersion pins
  // both). `num_terms` must exceed every TermId of the merged set.
  TrieIndex(const TrieIndex& base, const OrderDelta& delta,
            uint32_t num_terms);

  TrieIndex(const TrieIndex&) = delete;
  TrieIndex& operator=(const TrieIndex&) = delete;
  TrieIndex(TrieIndex&&) = default;

  IndexOrder order() const { return order_; }
  StorageTier tier() const { return tier_; }
  uint32_t size() const { return size_; }
  Range Root() const { return Range{0, size()}; }

  // True for an overlay view (no owned storage; reads merge base + delta).
  bool is_view() const { return base_ != nullptr; }

  // Re-stores the three level columns as compressed BlockedColumns and
  // frees the raw triple array. Positions, ranges and every query result
  // are unchanged; only the physical bytes (and MemoryBytes) move.
  void CompressToBlockTier();

  // The triple at `pos` (by value: the block tier reassembles it from the
  // three level columns; views resolve the merged position to its source).
  Triple TripleAt(uint32_t pos) const {
    if (base_ != nullptr) return ViewTripleAt(pos);
    if (tier_ == StorageTier::kRaw) return triples_[pos];
    TermId c[3];
    c[OrderComponent(order_, 0)] = cols_[0].Get(pos);
    c[OrderComponent(order_, 1)] = cols_[1].Get(pos);
    c[OrderComponent(order_, 2)] = cols_[2].Get(pos);
    return Triple{c[0], c[1], c[2]};
  }

  // Hints the memory TripleAt(pos) will touch: the raw triple itself, or
  // each level column's encoded block bytes on the block tier. Issued by
  // batched walk loops ahead of the corresponding TripleAt. Views decline
  // the hint: resolving the merged position reads the delta's directory
  // and arrays, which are the misses the hint would have to hide.
  void PrefetchTriple(uint32_t pos) const {
    if (base_ != nullptr) return;
    if (tier_ == StorageTier::kRaw) {
      __builtin_prefetch(triples_.data() + pos, /*rw=*/0, /*locality=*/1);
      return;
    }
    for (const BlockedColumn& col : cols_) col.PrefetchBlock(pos);
  }

  // The raw sorted array, for IndexSet's chained radix derivation only
  // (each order is one counting pass from another). Raw tier only —
  // everything else must go through the tier-agnostic accessors above
  // (enforced by the kgoa_lint raw-level-array rule).
  const Triple* RawTriplesForDerive() const {
    KGOA_DCHECK(tier_ == StorageTier::kRaw);
    KGOA_DCHECK(base_ == nullptr);
    return triples_.data();
  }

  // Value stored at trie `level` for the triple at `pos`.
  TermId KeyAt(uint32_t pos, int level) const {
    if (base_ != nullptr) return ViewKeyAt(pos, level);
    if (tier_ == StorageTier::kRaw) {
      return triples_[pos][OrderComponent(order_, level)];
    }
    return cols_[level].Get(pos);
  }

  // Range of triples whose level-0 value is `value` (empty if absent).
  // O(1): the CSR offsets, or for views the delta's shifted base range
  // (an absent key's empty range may then sit anywhere).
  Range Level0Range(TermId value) const {
    if (base_ != nullptr) return ViewLevel0Range(value);
    if (value >= num_terms_) return Range{};
    return Range{offsets_[value], offsets_[value + 1]};
  }

  // Number of distinct level-0 values. O(1).
  uint64_t Ndv1() const { return ndv1_; }

  // Upper bound (exclusive) on the TermIds appearing in the triples.
  uint32_t num_terms() const { return num_terms_; }

  // Sub-range of `range` whose `level` value equals `value`. `range` must
  // be a trie node at depth `level` (root or the result of narrowing levels
  // 0..level-1). O(1) at level 0, O(log |range|) deeper.
  Range Narrow(Range range, int level, TermId value) const;

  // First position in [from, range.end) whose `level` value is >= `value`.
  // Positions before `from` are assumed already consumed (leapfrog seek);
  // the search gallops from `from` (raw tier) or skips directory blocks
  // whose max is below `value` (block tier), so a hop of distance d costs
  // O(log d) / O(d / 128) instead of O(log |range|).
  uint32_t SeekGE(Range range, int level, TermId value, uint32_t from) const;

  // End of the block of equal `level` values starting at `pos`. O(1) at
  // level 0 via the CSR offsets.
  uint32_t BlockEnd(Range range, int level, uint32_t pos) const;

  // Number of distinct `level` values in `range` (a depth-`level` node).
  // O(1) at level 0 (the root node); O(d log n) for d distinct values
  // deeper.
  uint64_t CountDistinct(Range range, int level) const;

  // Bytes resident in the raw tier (the sorted Triple array). Zero after
  // CompressToBlockTier.
  uint64_t RawStorageBytes() const {
    return static_cast<uint64_t>(triples_.size()) * sizeof(Triple);
  }

  // Bytes resident in the block tier (encoded payloads + directories).
  // Zero before CompressToBlockTier.
  uint64_t BlockStorageBytes() const {
    uint64_t bytes = 0;
    for (const BlockedColumn& col : cols_) bytes += col.MemoryBytes();
    return bytes;
  }

  // Resident bytes: the active tier's storage plus the CSR offset array.
  uint64_t MemoryBytes() const {
    return RawStorageBytes() + BlockStorageBytes() +
           static_cast<uint64_t>(offsets_.size()) * sizeof(uint32_t);
  }

  // Full structural validation at KGOA_CHECK strength (active in every
  // build mode): lexicographic sortedness under the order, TermIds inside
  // the dictionary bound, CSR offset monotonicity and closure, the
  // distinct level-0 count, and (block tier) the codec's directory
  // round-trip audit. O(n + num_terms); for tests, the fuzz harnesses and
  // post-build audits — never on a query path.
  void CheckInvariants() const;

 private:
  // Builds offsets_ / ndv1_ from the sorted triples_ in one pass.
  void BuildLevel0Offsets();

  // Overlay-view implementations (out of line; see delta.h for the merged
  // position space they realize).
  Triple ViewTripleAt(uint32_t pos) const;
  TermId ViewKeyAt(uint32_t pos, int level) const;
  Range ViewLevel0Range(TermId value) const;
  // First position in [lo, hi) whose `level` key is >= / > `value`.
  uint32_t ViewLowerBound(uint32_t lo, uint32_t hi, int level,
                          TermId value) const;
  uint32_t ViewUpperBound(uint32_t lo, uint32_t hi, int level,
                          TermId value) const;
  Range ViewNarrow(Range range, int level, TermId value) const;
  uint32_t ViewSeekGE(Range range, int level, TermId value,
                      uint32_t from) const;
  uint32_t ViewBlockEnd(Range range, int level, uint32_t pos) const;
  void ViewCheckInvariants() const;

  IndexOrder order_;
  StorageTier tier_ = StorageTier::kRaw;
  uint32_t size_ = 0;
  std::vector<Triple> triples_;           // raw tier (empty after compress)
  std::array<BlockedColumn, 3> cols_;     // block tier, one column per level
  // offsets_[v] .. offsets_[v + 1]: the level-0 block of term v
  // (CSR layout over the dictionary-dense TermId space).
  std::vector<uint32_t> offsets_;
  uint32_t num_terms_ = 0;
  uint64_t ndv1_ = 0;
  // Overlay view only: the merged-over base index and its delta. Null for
  // owning indexes; both pinned by the owning GraphVersion for views.
  const TrieIndex* base_ = nullptr;
  const OrderDelta* delta_ = nullptr;
};

}  // namespace kgoa

#endif  // KGOA_INDEX_TRIE_INDEX_H_
