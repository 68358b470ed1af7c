// LSM-style delta overlay over a built IndexSet: the write side of the
// snapshot-epoch model (DESIGN.md §13).
//
// A MutableGraph absorbs insert/delete batches into a pair of canonical
// pending sets (adds that are not in the base, deletes that are), and this
// overlay translates those sets into per-index-order structures that define
// a MERGED position space per order:
//
//   merged = base positions minus tombstones, with each add spliced in at
//            its sorted insertion point.
//
// The merged space is rank-defined: position p of the merged sequence is
// the p-th smallest triple (under the order) of the live set, exactly as a
// from-scratch rebuild of base + adds - deletes would lay it out. A view
// TrieIndex over (base, OrderDelta) therefore satisfies the same
// SeekGE/Narrow/BlockEnd position-space contract as a rebuilt index,
// position for position — which is what makes estimates on a snapshot
// bit-identical to an immutable build of the same triple set (the
// overlay_fuzz differential harness checks this on random batches).
//
// Answers come from the base by positional delta translation (Héman et
// al., "Positional Update Handling in Column Stores", SIGMOD 2010): the
// view keeps the base positions and the base's flat hash tables, and
// shifts their answers by small counts. Per order the overlay holds five
// small sorted arrays,
//
//   adds            added triples, sorted under the order
//   add_base_pos    each add's base insertion point (non-decreasing)
//   add_merged_pos  each add's merged position (strictly increasing)
//   tombs           ascending base positions of deleted triples
//   gaps            tombs[t] - t: the live rank each tombstone sits at
//
// and answers the mapping primitives
//
//   LiveBefore(p)  = p - #tombs below p      (base -> merged rank shift)
//   SelectLive(k)  = k-th surviving base position (inverse of LiveBefore)
//   AddsBefore(m)  = #adds at merged positions below m
//   MapToSource(m) = add index or base position backing merged position m
//
// in O(1): each position array carries a directory of one count per
// kDirectoryBucket positions (RankedPositions), and a query reads one
// count and scans the few array entries inside its bucket.
//
// Range lookups translate the base hash tables. A base range [b, e) of a
// level-0 key or level-0/1 prefix that no add carries lands at
// [LiveBefore(b) + a, LiveBefore(e) + a), where a counts the adds inserted
// at or before b. Two exactly sized side tables hold the rest: the merged
// range of every prefix some add carries, and the merged range and
// level-1 distinct count of every level-0 key an add or a tombstone
// carries. The view's Ndv1 is the base count plus the presence changes of
// those keys. Publish builds all of it with O(overlay) hash probes and no
// base seeks beyond locating each pending triple once per order.
//
// Memory per order: O(overlay) plus one 4-byte word per 256 positions for
// each of the four directories.
//
// Overlays are immutable once built; MutableGraph rebuilds the overlay on
// every applied batch and publishes it behind a fresh GraphVersion.
#ifndef KGOA_INDEX_DELTA_H_
#define KGOA_INDEX_DELTA_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/flat_table.h"
#include "src/index/hash_range.h"
#include "src/index/order.h"
#include "src/index/trie_index.h"
#include "src/rdf/types.h"
#include "src/util/contract.h"

namespace kgoa {

class IndexSet;

// Canonical pending write sets, both sorted by (s, p, o) and duplicate
// free. Invariants (maintained by MutableGraph, checked by DeltaOverlay):
// every add is absent from the base graph, every delete is present in it,
// and the two sets are disjoint.
struct PendingWrites {
  std::vector<Triple> adds;
  std::vector<Triple> dels;

  bool empty() const { return adds.empty() && dels.empty(); }
};

// Positions covered by one directory entry.
inline constexpr uint32_t kDirectoryBucket = 256;

// A non-decreasing array of positions with a rank directory: entry b
// counts the values below b * kDirectoryBucket. A rank query reads one
// entry and scans the values inside that bucket; a bucket crowded past a
// few dozen values (a run of adjacent deletes, or many adds at one
// insertion point) is binary-searched instead.
class RankedPositions {
 public:
  RankedPositions() = default;

  // `values` must be non-decreasing; CountBelow accepts any x <= `space`.
  RankedPositions(std::vector<uint32_t> values, uint32_t space);

  uint32_t size() const { return static_cast<uint32_t>(values_.size()); }
  uint32_t operator[](uint32_t i) const { return values_[i]; }

  // Number of values strictly below x. O(1) plus the bucket scan.
  uint32_t CountBelow(uint32_t x) const {
    const uint32_t bucket = x / kDirectoryBucket;
    KGOA_DCHECK_LT(bucket + 1, counts_.size());
    uint32_t lo = counts_[bucket];
    const uint32_t hi = counts_[bucket + 1];
    if (hi - lo > kScanLimit) {
      return static_cast<uint32_t>(
          std::lower_bound(values_.begin() + lo, values_.begin() + hi, x) -
          values_.begin());
    }
    while (lo < hi && values_[lo] < x) ++lo;
    return lo;
  }

  uint64_t MemoryBytes() const {
    return static_cast<uint64_t>(values_.capacity() + counts_.capacity()) *
           sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kScanLimit = 32;

  std::vector<uint32_t> values_;
  std::vector<uint32_t> counts_;
};

// The per-order half of the overlay: the pending sets projected into one
// trie order's position space.
class OrderDelta {
 public:
  // Builds the order's delta against `base` (the same order's base index)
  // and `base_hash` (its hash range index), which must outlive the delta.
  // `pending` must satisfy the PendingWrites invariants.
  OrderDelta(IndexOrder order, const TrieIndex& base,
             const HashRangeIndex& base_hash, const PendingWrites& pending);

  OrderDelta(const OrderDelta&) = delete;
  OrderDelta& operator=(const OrderDelta&) = delete;

  IndexOrder order() const { return order_; }
  uint32_t NumAdds() const { return static_cast<uint32_t>(adds_.size()); }
  uint32_t NumTombs() const { return tombs_.size(); }

  const Triple& Add(uint32_t i) const { return adds_[i]; }

  // Merged range of the triples whose level-0 value is `v0` / whose
  // level-0/1 values are (v0, v1). Empty (at an unspecified position) when
  // the key is absent from the merged set. O(1).
  Range Depth1(TermId v0) const {
    if (const KeyEntry* entry = keys_.Find(v0)) return entry->range;
    return Shift(base_hash_->Depth1(v0));
  }
  Range Depth2(TermId v0, TermId v1) const {
    if (const Range* range = prefixes_.Find(PackPair(v0, v1))) return *range;
    return Shift(base_hash_->Depth2(v0, v1));
  }

  // Distinct level-0 values of the merged sequence, and distinct level-1
  // values under `v0` (0 if absent). O(1).
  uint64_t Ndv1() const { return ndv1_; }
  uint64_t Ndv2(TermId v0) const {
    if (const KeyEntry* entry = keys_.Find(v0)) return entry->ndv2;
    return base_hash_->Ndv2(v0);
  }

  // Number of surviving base positions strictly below `base_pos`; the
  // merged-rank contribution of the base prefix [0, base_pos).
  uint32_t LiveBefore(uint32_t base_pos) const {
    return base_pos - tombs_.CountBelow(base_pos);
  }

  // The k-th (0-based) base position that is not tombstoned. k must be
  // below base.size() - NumTombs(). The answer is k plus the tombstones at
  // or below it: the t with gaps_[t] = tombs_[t] - t <= k.
  uint32_t SelectLive(uint32_t k) const {
    return k + gaps_.CountBelow(k + 1);
  }

  // Number of adds whose merged position is < `mpos`.
  uint32_t AddsBefore(uint32_t mpos) const {
    return add_merged_pos_.CountBelow(mpos);
  }

  // Source of merged position `mpos`: either an add (index into adds_) or
  // a surviving base position.
  struct Source {
    bool is_add;
    uint32_t index;  // add index or base position
  };
  Source MapToSource(uint32_t mpos) const {
    const uint32_t a = AddsBefore(mpos + 1);
    if (a > 0 && add_merged_pos_[a - 1] == mpos) return Source{true, a - 1};
    return Source{false, SelectLive(mpos - a)};
  }

  // Resident bytes: the sorted arrays, the directories and the side
  // tables.
  uint64_t MemoryBytes() const;

 private:
  struct KeyEntry {
    Range range;
    uint32_t ndv2 = 0;
  };

  // Number of adds whose base insertion point is <= `base_pos`: the adds
  // that sort before the base triple at `base_pos`.
  uint32_t AddsAtOrBefore(uint32_t base_pos) const {
    return add_base_pos_.CountBelow(base_pos + 1);
  }

  // Merged range of a base range whose key or prefix no add carries.
  Range Shift(Range base) const {
    if (base.empty()) return Range{};
    const uint32_t adds = AddsAtOrBefore(base.begin);
    return Range{LiveBefore(base.begin) + adds, LiveBefore(base.end) + adds};
  }

  // Merged range of a key or prefix with base range `base` (empty when
  // the base lacks it) and adds [first_add, end_add), which sit between
  // the same keys' live base triples in the merged order.
  Range MergedRange(Range base, uint32_t first_add, uint32_t end_add) const;

  // Fills keys_, prefixes_ and ndv1_ from the grouped adds and deletes.
  void BuildSideTables(const std::vector<Triple>& dels);

  IndexOrder order_;
  const HashRangeIndex* base_hash_;
  std::vector<Triple> adds_;         // sorted under order_
  RankedPositions add_base_pos_;     // base positions, non-decreasing
  RankedPositions add_merged_pos_;   // merged positions, increasing
  RankedPositions tombs_;            // base positions, increasing
  RankedPositions gaps_;             // tombs_[t] - t: live ranks
  // Side tables: level-0 keys an add or a tombstone carries, and level-0/1
  // prefixes an add carries. Keys are dictionary-dense, so kInvalidTerm
  // and the all-ones pair never occur.
  FlatTable<TermId, KeyEntry> keys_{kInvalidTerm};
  FlatTable<uint64_t, Range> prefixes_{~0ull};
  uint64_t ndv1_ = 0;
};

// The full overlay: one OrderDelta per maintained order plus the canonical
// pending sets (for membership adjustment and compaction folding).
class DeltaOverlay {
 public:
  // `base` must be an owning IndexSet (views do not stack) and must
  // outlive the overlay (views hold pointers into it).
  DeltaOverlay(const IndexSet& base, PendingWrites pending);

  DeltaOverlay(const DeltaOverlay&) = delete;
  DeltaOverlay& operator=(const DeltaOverlay&) = delete;

  const OrderDelta& Delta(IndexOrder order) const {
    return *deltas_[static_cast<int>(order)];
  }

  const PendingWrites& pending() const { return pending_; }

  uint64_t NumAdds() const { return pending_.adds.size(); }
  uint64_t NumDels() const { return pending_.dels.size(); }

  // Upper bound (exclusive) on TermIds of the merged triple set: the base
  // bound widened by any fresh terms the adds introduce.
  uint32_t ViewNumTerms() const { return view_num_terms_; }

  bool IsAdded(const Triple& t) const;
  bool IsDeleted(const Triple& t) const;

  // Resident bytes of the whole overlay: the pending sets and every
  // order's delta arrays, directories and side tables.
  uint64_t MemoryBytes() const;

 private:
  PendingWrites pending_;
  uint32_t view_num_terms_ = 0;
  std::array<std::unique_ptr<OrderDelta>, kNumIndexOrders> deltas_;
};

}  // namespace kgoa

#endif  // KGOA_INDEX_DELTA_H_
