#include "src/index/delta.h"

#include <algorithm>

#include "src/index/index_set.h"

namespace kgoa {

namespace {

// First base position whose triple is >= `t` under `order`. Tier-agnostic
// (goes through TripleAt); O(log n) — build-time only, never on a query
// path.
uint32_t BaseLowerBound(const TrieIndex& base, const Triple& t) {
  const OrderLess less{base.order()};
  uint32_t lo = 0;
  uint32_t hi = base.size();
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (less(base.TripleAt(mid), t)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

RankedPositions::RankedPositions(std::vector<uint32_t> values,
                                 uint32_t space)
    : values_(std::move(values)) {
  KGOA_DCHECK_SORTED(values_.begin(), values_.end());
  counts_.resize(space / kDirectoryBucket + 2);
  uint32_t j = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const uint64_t bucket_start = static_cast<uint64_t>(b) * kDirectoryBucket;
    while (j < values_.size() && values_[j] < bucket_start) ++j;
    counts_[b] = j;
  }
}

OrderDelta::OrderDelta(IndexOrder order, const TrieIndex& base,
                       const HashRangeIndex& base_hash,
                       const PendingWrites& pending)
    : order_(order), base_hash_(&base_hash), adds_(pending.adds) {
  KGOA_CHECK(base.order() == order_);
  const OrderLess less{order_};
  std::sort(adds_.begin(), adds_.end(), less);
  const uint32_t n = base.size();

  // Deletes sorted under the order locate in ascending base positions, so
  // the tombstones come out sorted without a second pass.
  std::vector<Triple> dels = pending.dels;
  std::sort(dels.begin(), dels.end(), less);
  std::vector<uint32_t> tombs;
  std::vector<uint32_t> gaps;
  tombs.reserve(dels.size());
  gaps.reserve(dels.size());
  for (const Triple& t : dels) {
    const uint32_t pos = BaseLowerBound(base, t);
    // PendingWrites invariant: every delete names a live base triple.
    KGOA_CHECK_MSG(pos < n && base.TripleAt(pos) == t,
                   "tombstone for a triple absent from the base index");
    gaps.push_back(pos - static_cast<uint32_t>(tombs.size()));
    tombs.push_back(pos);
  }
  const uint32_t live = n - static_cast<uint32_t>(tombs.size());
  tombs_ = RankedPositions(std::move(tombs), n);
  gaps_ = RankedPositions(std::move(gaps), live);

  // Merged position of add i: its rank among the adds (i) plus the live
  // base triples below its insertion point. Strictly increasing in i.
  std::vector<uint32_t> base_pos(adds_.size());
  std::vector<uint32_t> merged_pos(adds_.size());
  for (uint32_t i = 0; i < adds_.size(); ++i) {
    base_pos[i] = BaseLowerBound(base, adds_[i]);
    // PendingWrites invariant: adds are absent from the base.
    KGOA_DCHECK(base_pos[i] == n ||
                !(base.TripleAt(base_pos[i]) == adds_[i]));
    merged_pos[i] = i + LiveBefore(base_pos[i]);
  }
  add_base_pos_ = RankedPositions(std::move(base_pos), n + 1);
  add_merged_pos_ = RankedPositions(std::move(merged_pos), live + NumAdds());

  BuildSideTables(dels);
}

Range OrderDelta::MergedRange(Range base, uint32_t first_add,
                              uint32_t end_add) const {
  if (base.empty()) {
    // Absent from the base: the key sits where its first add inserts.
    KGOA_DCHECK_LT(first_add, end_add);
    base = Range{add_base_pos_[first_add], add_base_pos_[first_add]};
  }
  return Range{LiveBefore(base.begin) + first_add,
               LiveBefore(base.end) + end_add};
}

// Adds and deletes are both sorted under the order, so each level-0 key
// (and each level-0/1 prefix under it) they carry is one run in each
// array; a merge over the runs visits every carried key once, probing the
// base hash tables for the key's base range and distinct counts.
void OrderDelta::BuildSideTables(const std::vector<Triple>& dels) {
  const int c0 = OrderComponent(order_, 0);
  const int c1 = OrderComponent(order_, 1);
  const uint32_t num_adds = NumAdds();
  const uint32_t num_dels = NumTombs();
  auto next_key = [&](uint32_t i, uint32_t t, uint32_t add_end,
                      uint32_t del_end, int c) {
    return std::min(i < add_end ? adds_[i][c] : kInvalidTerm,
                    t < del_end ? dels[t][c] : kInvalidTerm);
  };

  // Exact table sizes: distinct level-0 keys over adds and deletes, and
  // distinct level-0/1 prefixes over the adds.
  std::size_t num_keys = 0;
  for (uint32_t i = 0, t = 0; i < num_adds || t < num_dels; ++num_keys) {
    const TermId v0 = next_key(i, t, num_adds, num_dels, c0);
    while (i < num_adds && adds_[i][c0] == v0) ++i;
    while (t < num_dels && dels[t][c0] == v0) ++t;
  }
  std::size_t num_prefixes = 0;
  for (uint32_t i = 0; i < num_adds; ++i) {
    num_prefixes += i == 0 || adds_[i][c0] != adds_[i - 1][c0] ||
                    adds_[i][c1] != adds_[i - 1][c1];
  }
  keys_.Reset(num_keys);
  prefixes_.Reset(num_prefixes);

  int64_t ndv1_change = 0;
  for (uint32_t i = 0, t = 0; i < num_adds || t < num_dels;) {
    const TermId v0 = next_key(i, t, num_adds, num_dels, c0);
    const uint32_t first_add = i;
    const uint32_t first_del = t;
    while (i < num_adds && adds_[i][c0] == v0) ++i;
    while (t < num_dels && dels[t][c0] == v0) ++t;

    // Prefixes under v0: a new one counts toward Ndv2(v0), one whose base
    // triples are all deleted (and that no add revives) counts against.
    int64_t ndv2_change = 0;
    for (uint32_t j = first_add, u = first_del; j < i || u < t;) {
      const TermId v1 = next_key(j, u, i, t, c1);
      const uint32_t prefix_add = j;
      const uint32_t prefix_del = u;
      while (j < i && adds_[j][c1] == v1) ++j;
      while (u < t && dels[u][c1] == v1) ++u;
      const Range base = base_hash_->Depth2(v0, v1);
      if (j > prefix_add) {
        prefixes_.InsertUnique(PackPair(v0, v1)) =
            MergedRange(base, prefix_add, j);
        ndv2_change += base.empty() ? 1 : 0;
      } else if (u - prefix_del == base.size()) {
        --ndv2_change;
      }
    }

    const Range base = base_hash_->Depth1(v0);
    const bool in_base = !base.empty();
    const bool in_view = i > first_add || t - first_del < base.size();
    ndv1_change += static_cast<int64_t>(in_view) -
                   static_cast<int64_t>(in_base);
    const int64_t ndv2 =
        static_cast<int64_t>(base_hash_->Ndv2(v0)) + ndv2_change;
    KGOA_DCHECK_GE(ndv2, 0);
    KGOA_DCHECK_EQ(ndv2 > 0, in_view);
    keys_.InsertUnique(v0) = KeyEntry{MergedRange(base, first_add, i),
                                      static_cast<uint32_t>(ndv2)};
  }
  ndv1_ = static_cast<uint64_t>(
      static_cast<int64_t>(base_hash_->Ndv1()) + ndv1_change);
}

uint64_t OrderDelta::MemoryBytes() const {
  return static_cast<uint64_t>(adds_.capacity()) * sizeof(Triple) +
         add_base_pos_.MemoryBytes() + add_merged_pos_.MemoryBytes() +
         tombs_.MemoryBytes() + gaps_.MemoryBytes() + keys_.MemoryBytes() +
         prefixes_.MemoryBytes();
}

DeltaOverlay::DeltaOverlay(const IndexSet& base, PendingWrites pending)
    : pending_(std::move(pending)) {
  KGOA_CHECK_MSG(base.has_hash(),
                 "views do not stack: the base must be an owning IndexSet");
  KGOA_DCHECK_SORTED_BY(pending_.adds.begin(), pending_.adds.end(), SpoLess);
  KGOA_DCHECK_SORTED_BY(pending_.dels.begin(), pending_.dels.end(), SpoLess);
  uint32_t num_terms = base.Index(IndexOrder::kSpo).num_terms();
  for (const Triple& t : pending_.adds) {
    num_terms = std::max({num_terms, t.s + 1, t.p + 1, t.o + 1});
  }
  view_num_terms_ = num_terms;
  for (IndexOrder order : kAllIndexOrders) {
    deltas_[static_cast<int>(order)] = std::make_unique<OrderDelta>(
        order, base.Index(order), base.Hash(order), pending_);
  }
}

bool DeltaOverlay::IsAdded(const Triple& t) const {
  return std::binary_search(pending_.adds.begin(), pending_.adds.end(), t,
                            SpoLess);
}

bool DeltaOverlay::IsDeleted(const Triple& t) const {
  return std::binary_search(pending_.dels.begin(), pending_.dels.end(), t,
                            SpoLess);
}

uint64_t DeltaOverlay::MemoryBytes() const {
  uint64_t bytes = static_cast<uint64_t>(pending_.adds.capacity() +
                                         pending_.dels.capacity()) *
                   sizeof(Triple);
  for (const auto& delta : deltas_) bytes += delta->MemoryBytes();
  return bytes;
}

}  // namespace kgoa
