#include "src/index/trie_index.h"

#include <algorithm>

#include "src/index/delta.h"
#include "src/index/kernels.h"
#include "src/index/radix.h"
#include "src/util/contract.h"

namespace kgoa {

namespace {

// Comparator projecting a single level's component for binary search.
struct LevelLess {
  IndexOrder order;
  int level;
  bool operator()(const Triple& t, TermId v) const {
    return t[OrderComponent(order, level)] < v;
  }
  bool operator()(TermId v, const Triple& t) const {
    return v < t[OrderComponent(order, level)];
  }
};

uint32_t MaxTermBound(const std::vector<Triple>& triples) {
  TermId max_id = 0;
  for (const Triple& t : triples) {
    max_id = std::max({max_id, t.s, t.p, t.o});
  }
  return triples.empty() ? 0 : max_id + 1;
}

}  // namespace

TrieIndex::TrieIndex(IndexOrder order, const std::vector<Triple>& triples)
    : order_(order),
      size_(static_cast<uint32_t>(triples.size())),
      triples_(triples),
      num_terms_(MaxTermBound(triples)) {
  radix::LsdRadixSort(order_, triples_, num_terms_);
  KGOA_DCHECK_SORTED_BY(triples_.begin(), triples_.end(), OrderLess{order_});
  BuildLevel0Offsets();
}

TrieIndex::TrieIndex(IndexOrder order, std::vector<Triple> sorted,
                     uint32_t num_terms)
    : order_(order),
      size_(static_cast<uint32_t>(sorted.size())),
      triples_(std::move(sorted)),
      num_terms_(num_terms) {
  KGOA_DCHECK_SORTED_BY(triples_.begin(), triples_.end(), OrderLess{order_});
  BuildLevel0Offsets();
}

TrieIndex::TrieIndex(const TrieIndex& base, const OrderDelta& delta,
                     uint32_t num_terms)
    : order_(base.order_),
      tier_(base.tier_),
      size_(base.size_ - delta.NumTombs() + delta.NumAdds()),
      num_terms_(num_terms),
      ndv1_(delta.Ndv1()),
      base_(&base),
      delta_(&delta) {
  // Views never stack: MutableGraph rebuilds one overlay against the
  // compacted base, so a view's base is always an owning index.
  KGOA_CHECK(!base.is_view());
  KGOA_CHECK(delta.order() == order_);
  KGOA_CHECK_GE(num_terms_, base.num_terms_);
}

void TrieIndex::BuildLevel0Offsets() {
  const int c0 = OrderComponent(order_, 0);
  offsets_.assign(static_cast<std::size_t>(num_terms_) + 1, 0);
  for (const Triple& t : triples_) {
    KGOA_DCHECK_LT(t[c0], num_terms_);
    ++offsets_[t[c0] + 1];
  }
  ndv1_ = 0;
  for (uint32_t v = 0; v < num_terms_; ++v) {
    ndv1_ += offsets_[v + 1] != 0;
    offsets_[v + 1] += offsets_[v];
  }
  // CSR closure: the last offset must account for every triple.
  KGOA_DCHECK_EQ(offsets_[num_terms_], size());
}

void TrieIndex::CompressToBlockTier() {
  KGOA_CHECK_MSG(base_ == nullptr, "overlay views own no storage to compress");
  KGOA_CHECK_MSG(tier_ == StorageTier::kRaw,
                 "index is already block-compressed");
  const uint32_t n = size();
  std::vector<uint32_t> column(n);
  for (int level = 0; level < 3; ++level) {
    const int c = OrderComponent(order_, level);
    for (uint32_t pos = 0; pos < n; ++pos) column[pos] = triples_[pos][c];
    cols_[level] = BlockedColumn(column.data(), n);
  }
  tier_ = StorageTier::kBlock;
  // Release the raw array: from here on, every read goes through the
  // columns (the position space is unchanged).
  std::vector<Triple>().swap(triples_);
}

void TrieIndex::CheckInvariants() const {
  if (base_ != nullptr) {
    ViewCheckInvariants();
    return;
  }
  KGOA_CHECK_EQ(offsets_.size(), static_cast<std::size_t>(num_terms_) + 1);
  KGOA_CHECK_EQ(offsets_[0], 0u);
  KGOA_CHECK_EQ(offsets_[num_terms_], size());
  uint64_t nonempty = 0;
  for (uint32_t v = 0; v < num_terms_; ++v) {
    KGOA_CHECK_LE(offsets_[v], offsets_[v + 1]);  // CSR monotonicity
    nonempty += offsets_[v + 1] != offsets_[v];
  }
  KGOA_CHECK_EQ(nonempty, ndv1_);
  if (tier_ == StorageTier::kRaw) {
    KGOA_CHECK_EQ(triples_.size(), static_cast<std::size_t>(size_));
  } else {
    KGOA_CHECK(triples_.empty());
    for (const BlockedColumn& col : cols_) {
      KGOA_CHECK_EQ(col.size(), size_);
      col.CheckInvariants();
    }
  }
  const OrderLess less{order_};
  const int c0 = OrderComponent(order_, 0);
  Triple prev{};
  for (uint32_t pos = 0; pos < size(); ++pos) {
    const Triple t = TripleAt(pos);
    KGOA_CHECK_LT(t.s, num_terms_);
    KGOA_CHECK_LT(t.p, num_terms_);
    KGOA_CHECK_LT(t.o, num_terms_);
    if (pos > 0) {
      KGOA_CHECK_MSG(!less(t, prev), "trie level out of sorted order");
    }
    prev = t;
    // Each triple must sit inside its own level-0 CSR block.
    KGOA_CHECK_GE(pos, offsets_[t[c0]]);
    KGOA_CHECK_LT(pos, offsets_[t[c0] + 1]);
  }
}

Range TrieIndex::Narrow(Range range, int level, TermId value) const {
  KGOA_DCHECK(level >= 0 && level < 3);
  if (base_ != nullptr) return ViewNarrow(range, level, value);
  if (level == 0) {
    // The only depth-0 trie node is the root, covered by the CSR offsets.
    KGOA_DCHECK(range == Root());
    return Level0Range(value);
  }
  KGOA_DCHECK_LE(range.end, size());
  if (tier_ == StorageTier::kBlock) {
    // SeekGE lands on the first key >= value — the same insertion point
    // std::equal_range yields, so empty results match the raw tier
    // position-for-position.
    const BlockedColumn& col = cols_[level];
    const uint32_t lo = col.SeekGE(range.begin, range.end, value);
    if (lo == range.end || col.Get(lo) != value) return Range{lo, lo};
    return Range{lo, col.SeekGT(lo, range.end, value)};
  }
  const auto first = triples_.begin() + range.begin;
  const auto last = triples_.begin() + range.end;
  const auto [lo, hi] =
      std::equal_range(first, last, value, LevelLess{order_, level});
  return Range{static_cast<uint32_t>(lo - triples_.begin()),
               static_cast<uint32_t>(hi - triples_.begin())};
}

uint32_t TrieIndex::SeekGE(Range range, int level, TermId value,
                           uint32_t from) const {
  if (base_ != nullptr) return ViewSeekGE(range, level, value, from);
  KGOA_DCHECK(from >= range.begin);
  if (from >= range.end) return range.end;
  if (tier_ == StorageTier::kBlock) {
    const uint32_t result = cols_[level].SeekGE(from, range.end, value);
    KGOA_DCHECK_GE(result, from);
    KGOA_DCHECK_LE(result, range.end);
    KGOA_DCHECK(result == range.end || KeyAt(result, level) >= value);
    KGOA_DCHECK(result == from || KeyAt(result - 1, level) < value);
    return result;
  }
  const int c = OrderComponent(order_, level);
  if (triples_[from][c] >= value) return from;
  // Gallop forward: leapfrog hops are usually short relative to the
  // enclosing range, so doubling steps from `from` beat a full binary
  // search over [from, range.end). Invariant: key(lo) < value.
  uint64_t lo = from;
  uint64_t step = 1;
  while (lo + step < range.end && triples_[lo + step][c] < value) {
    lo += step;
    step <<= 1;
  }
  const uint64_t hi = std::min<uint64_t>(range.end, lo + step);
  // Binary tail over the galloped window, on the level's component viewed
  // as a stride-3 array (Triple is standard-layout 3 x uint32).
  const uint32_t first = static_cast<uint32_t>(lo) + 1;
  const uint32_t* keys =
      reinterpret_cast<const uint32_t*>(triples_.data() + first) + c;
  const uint32_t result =
      first + kernels::LowerBoundStridedU32(
                  keys, 3, static_cast<uint32_t>(hi) - first, value);
  // Seek postconditions: the cursor never moves backwards, lands on the
  // first key >= value, and skips only keys < value.
  KGOA_DCHECK_GE(result, from);
  KGOA_DCHECK_LE(result, range.end);
  KGOA_DCHECK(result == range.end || KeyAt(result, level) >= value);
  KGOA_DCHECK(result == from || KeyAt(result - 1, level) < value);
  return result;
}

uint32_t TrieIndex::BlockEnd(Range range, int level, uint32_t pos) const {
  if (base_ != nullptr) return ViewBlockEnd(range, level, pos);
  KGOA_DCHECK(pos >= range.begin && pos < range.end);
  if (level == 0) {
    KGOA_DCHECK(range == Root());
    return offsets_[KeyAt(pos, 0) + 1];
  }
  const TermId value = KeyAt(pos, level);
  if (tier_ == StorageTier::kBlock) {
    const uint32_t result = cols_[level].SeekGT(pos, range.end, value);
    KGOA_DCHECK_GT(result, pos);
    KGOA_DCHECK_LE(result, range.end);
    KGOA_DCHECK(KeyAt(result - 1, level) == value);
    KGOA_DCHECK(result == range.end || KeyAt(result, level) != value);
    return result;
  }
  // Exponential (galloping) search: blocks are usually short relative to
  // the enclosing range, so this beats a full binary search in practice.
  uint64_t step = 1;
  uint64_t lo = pos;
  while (lo + step < range.end && KeyAt(lo + step, level) == value) {
    lo += step;
    step <<= 1;
  }
  const uint32_t hi = std::min<uint64_t>(range.end, lo + step);
  const uint32_t first = static_cast<uint32_t>(lo);
  const uint32_t* keys =
      reinterpret_cast<const uint32_t*>(triples_.data() + first) +
      OrderComponent(order_, level);
  const uint32_t result =
      first + kernels::UpperBoundStridedU32(keys, 3, hi - first, value);
  // Block postconditions: non-empty, within the node, value-homogeneous.
  KGOA_DCHECK_GT(result, pos);
  KGOA_DCHECK_LE(result, range.end);
  KGOA_DCHECK(KeyAt(result - 1, level) == value);
  KGOA_DCHECK(result == range.end || KeyAt(result, level) != value);
  return result;
}

// ---------------------------------------------------------------------------
// Overlay-view implementations (delta.h defines the merged position space)
// ---------------------------------------------------------------------------

Triple TrieIndex::ViewTripleAt(uint32_t pos) const {
  const OrderDelta::Source src = delta_->MapToSource(pos);
  return src.is_add ? delta_->Add(src.index) : base_->TripleAt(src.index);
}

TermId TrieIndex::ViewKeyAt(uint32_t pos, int level) const {
  const OrderDelta::Source src = delta_->MapToSource(pos);
  if (src.is_add) {
    return delta_->Add(src.index)[OrderComponent(order_, level)];
  }
  return base_->KeyAt(src.index, level);
}

Range TrieIndex::ViewLevel0Range(TermId value) const {
  return delta_->Depth1(value);
}

uint32_t TrieIndex::ViewLowerBound(uint32_t lo, uint32_t hi, int level,
                                   TermId value) const {
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (ViewKeyAt(mid, level) < value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint32_t TrieIndex::ViewUpperBound(uint32_t lo, uint32_t hi, int level,
                                   TermId value) const {
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (ViewKeyAt(mid, level) <= value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Range TrieIndex::ViewNarrow(Range range, int level, TermId value) const {
  if (level == 0) {
    KGOA_DCHECK(range == Root());
    return ViewLevel0Range(value);
  }
  KGOA_DCHECK_LE(range.end, size());
  const uint32_t lo = ViewLowerBound(range.begin, range.end, level, value);
  if (lo == range.end || ViewKeyAt(lo, level) != value) return Range{lo, lo};
  return Range{lo, ViewUpperBound(lo, range.end, level, value)};
}

uint32_t TrieIndex::ViewSeekGE(Range range, int level, TermId value,
                               uint32_t from) const {
  KGOA_DCHECK(from >= range.begin);
  if (from >= range.end) return range.end;
  if (ViewKeyAt(from, level) >= value) return from;
  // Gallop as the owning tiers do: leapfrog hops are short relative to
  // the node, and each probe here costs a MapToSource resolution.
  uint64_t lo = from;
  uint64_t step = 1;
  while (lo + step < range.end &&
         ViewKeyAt(static_cast<uint32_t>(lo + step), level) < value) {
    lo += step;
    step <<= 1;
  }
  const uint32_t hi =
      static_cast<uint32_t>(std::min<uint64_t>(range.end, lo + step));
  const uint32_t result =
      ViewLowerBound(static_cast<uint32_t>(lo) + 1, hi, level, value);
  // Same seek postconditions as the owning tiers.
  KGOA_DCHECK_GE(result, from);
  KGOA_DCHECK_LE(result, range.end);
  KGOA_DCHECK(result == range.end || ViewKeyAt(result, level) >= value);
  KGOA_DCHECK(result == from || ViewKeyAt(result - 1, level) < value);
  return result;
}

uint32_t TrieIndex::ViewBlockEnd(Range range, int level, uint32_t pos) const {
  KGOA_DCHECK(pos >= range.begin && pos < range.end);
  const TermId value = ViewKeyAt(pos, level);
  if (level == 0) {
    KGOA_DCHECK(range == Root());
    return ViewLevel0Range(value).end;
  }
  uint64_t lo = pos;
  uint64_t step = 1;
  while (lo + step < range.end &&
         ViewKeyAt(static_cast<uint32_t>(lo + step), level) == value) {
    lo += step;
    step <<= 1;
  }
  const uint32_t hi =
      static_cast<uint32_t>(std::min<uint64_t>(range.end, lo + step));
  const uint32_t result =
      ViewUpperBound(static_cast<uint32_t>(lo), hi, level, value);
  KGOA_DCHECK_GT(result, pos);
  KGOA_DCHECK_LE(result, range.end);
  KGOA_DCHECK(ViewKeyAt(result - 1, level) == value);
  KGOA_DCHECK(result == range.end || ViewKeyAt(result, level) != value);
  return result;
}

void TrieIndex::ViewCheckInvariants() const {
  KGOA_CHECK(triples_.empty());
  KGOA_CHECK(offsets_.empty());
  KGOA_CHECK_EQ(size_, base_->size() - delta_->NumTombs() + delta_->NumAdds());
  const OrderLess less{order_};
  const int c0 = OrderComponent(order_, 0);
  Triple prev{};
  uint64_t distinct = 0;
  for (uint32_t pos = 0; pos < size_; ++pos) {
    const Triple t = TripleAt(pos);
    KGOA_CHECK_LT(t.s, num_terms_);
    KGOA_CHECK_LT(t.p, num_terms_);
    KGOA_CHECK_LT(t.o, num_terms_);
    if (pos > 0) {
      // Strict: the merged set is duplicate-free (adds are disjoint from
      // the live base by the PendingWrites invariants).
      KGOA_CHECK_MSG(less(prev, t), "overlay view out of strict order");
    }
    if (pos == 0 || prev[c0] != t[c0]) ++distinct;
    // Each triple must sit inside its own merged level-0 block.
    const Range block = ViewLevel0Range(t[c0]);
    KGOA_CHECK_GE(pos, block.begin);
    KGOA_CHECK_LT(pos, block.end);
    prev = t;
  }
  KGOA_CHECK_EQ(distinct, ndv1_);
}

uint64_t TrieIndex::CountDistinct(Range range, int level) const {
  if (level == 0) {
    KGOA_DCHECK(range == Root());
    return ndv1_;
  }
  uint64_t count = 0;
  uint32_t pos = range.begin;
  while (pos < range.end) {
    ++count;
    pos = BlockEnd(range, level, pos);
  }
  return count;
}

}  // namespace kgoa
