#include "src/index/index_set.h"

#include <bit>
#include <thread>
#include <unordered_set>  // kgoa-lint: allow(unordered-in-hot-path) — cold ndv fallback below

#include "src/index/radix.h"
#include "src/util/contract.h"
#include "src/util/stopwatch.h"

namespace kgoa {

// The four orders derive from the graph's (s,p,o)-sorted triples without a
// single comparison sort. A stable counting-sort pass on one component
// reorders blocks of that component while preserving the source order
// inside each block, so sorting source order (x,y,z) on component c yields
// (c, then x,y,z minus c) — each maintained order is one pass away from
// another:
//
//   SPO = the base itself (Graph sorts and dedups on (s,p,o))
//   PSO = base sorted by p   (within p: (s,o) from the base)
//   OPS = PSO  sorted by o   (within o: (p,s) from PSO)
//   POS = OPS  sorted by p   (within p: (o,s) from OPS)
//
// The chain runs on the constructing thread; the SPO copy and every hash
// range index build run concurrently as their sorted array lands. No
// temporary triple buffers: each pass scatters straight into the
// destination order's final array, so peak memory stays at the base plus
// the four resident copies.
IndexSet::IndexSet(const Graph& graph, const IndexSetOptions& options)
    : num_triples_(graph.NumTriples()), tier_(options.tier) {
  const uint32_t num_terms = static_cast<uint32_t>(graph.dict().size());
  const std::vector<Triple>& base = graph.triples();
  const uint32_t n = static_cast<uint32_t>(base.size());
  indexes_.resize(kNumIndexOrders);
  hashes_.resize(kNumIndexOrders);
  Stopwatch total;

  // Each task writes a distinct slot of indexes_/hashes_/stats_, so the
  // only synchronization needed is the joins at the end.
  auto build_hash = [this](IndexOrder order) {
    const int o = static_cast<int>(order);
    Stopwatch clock;
    hashes_[o] = std::make_unique<HashRangeIndex>(*indexes_[o]);
    stats_.hash_ms[o] = clock.ElapsedMillis();
  };
  auto adopt = [&](IndexOrder order, std::vector<Triple> sorted,
                   const Stopwatch& clock) {
    const int o = static_cast<int>(order);
    indexes_[o] = std::make_unique<TrieIndex>(order, std::move(sorted),
                                              num_terms);
    stats_.sort_ms[o] = clock.ElapsedMillis();
  };
  // One stable counting pass: `source` sorted by the level-0 component of
  // `order` lands directly in that order's final array.
  std::vector<uint32_t> scratch;
  auto derive = [&](IndexOrder order, const TrieIndex& source) {
    Stopwatch clock;
    std::vector<Triple> sorted(n);
    radix::CountingSortByComponent(source.RawTriplesForDerive(), n,
                                   sorted.data(), OrderComponent(order, 0),
                                   num_terms, scratch);
    adopt(order, std::move(sorted), clock);
  };

  // kgoa-lint: allow(raw-thread) parallel index build, not a serve
  std::vector<std::thread> workers;
  workers.emplace_back([&] {
    Stopwatch clock;
    adopt(IndexOrder::kSpo, base, clock);
    build_hash(IndexOrder::kSpo);
  });

  {
    Stopwatch clock;
    std::vector<Triple> pso(n);
    radix::CountingSortByComponent(base.data(), n, pso.data(),
                                   OrderComponent(IndexOrder::kPso, 0),
                                   num_terms, scratch);
    adopt(IndexOrder::kPso, std::move(pso), clock);
  }
  workers.emplace_back([&] { build_hash(IndexOrder::kPso); });

  derive(IndexOrder::kOps, Index(IndexOrder::kPso));
  workers.emplace_back([&] { build_hash(IndexOrder::kOps); });

  derive(IndexOrder::kPos, Index(IndexOrder::kOps));
  build_hash(IndexOrder::kPos);

  // kgoa-lint: allow(raw-thread) parallel index build, not a serve
  for (std::thread& worker : workers) worker.join();

  if (tier_ == StorageTier::kBlock) {
    // Compress every order after the chain and the hash builds land: the
    // derivation chain needs the raw arrays, and the hash builds scan
    // far cheaper against them. Each order compresses independently.
    Stopwatch compress_clock;
    // kgoa-lint: allow(raw-thread) parallel index build, not a serve
    std::vector<std::thread> compressors;
    for (IndexOrder order : kAllIndexOrders) {
      compressors.emplace_back(
          [this, order] { indexes_[static_cast<int>(order)]
                              ->CompressToBlockTier(); });
    }
    // kgoa-lint: allow(raw-thread) parallel index build, not a serve
    for (std::thread& worker : compressors) worker.join();
    stats_.compress_ms = compress_clock.ElapsedMillis();
  }
  stats_.total_ms = total.ElapsedMillis();

  // Build postconditions: every order holds the whole graph, and each
  // hash-range index agrees with its trie about the distinct level-0
  // population. Sortedness of each order is contracted inside the
  // TrieIndex constructor itself.
  for (IndexOrder order : kAllIndexOrders) {
    KGOA_DCHECK_EQ(Index(order).size(), n);
    KGOA_DCHECK_EQ(Hash(order).Ndv1(), Index(order).Ndv1());
    KGOA_DCHECK(Index(order).tier() == tier_);
  }
}

std::unique_ptr<IndexSet> IndexSet::MakeView(const IndexSet& base,
                                             const DeltaOverlay& overlay) {
  KGOA_CHECK_MSG(base.has_hash(),
                 "views do not stack: the base must be an owning IndexSet");
  auto view = std::unique_ptr<IndexSet>(new IndexSet());
  view->num_triples_ =
      base.NumTriples() - overlay.NumDels() + overlay.NumAdds();
  view->tier_ = base.tier();
  view->indexes_.resize(kNumIndexOrders);
  view->hashes_.resize(kNumIndexOrders);  // all null: has_hash() == false
  view->overlay_ = &overlay;
  for (IndexOrder order : kAllIndexOrders) {
    view->indexes_[static_cast<int>(order)] = std::make_unique<TrieIndex>(
        base.Index(order), overlay.Delta(order), overlay.ViewNumTerms());
  }
  return view;
}

void IndexSet::PrefetchDepth1(IndexOrder order, TermId v) const {
  if (has_hash()) Hash(order).PrefetchDepth1(v);
}

void IndexSet::PrefetchDepth2(IndexOrder order, TermId v0, TermId v1) const {
  if (has_hash()) Hash(order).PrefetchDepth2(v0, v1);
}

uint64_t IndexSet::RawStorageBytes() const {
  uint64_t bytes = 0;
  for (IndexOrder order : kAllIndexOrders) {
    bytes += Index(order).RawStorageBytes();
  }
  return bytes;
}

uint64_t IndexSet::BlockStorageBytes() const {
  uint64_t bytes = 0;
  for (IndexOrder order : kAllIndexOrders) {
    bytes += Index(order).BlockStorageBytes();
  }
  return bytes;
}

uint64_t IndexSet::TrieMemoryBytes() const {
  uint64_t bytes = 0;
  for (IndexOrder order : kAllIndexOrders) {
    bytes += Index(order).MemoryBytes();
  }
  return bytes;
}

uint64_t IndexSet::HashMemoryBytes() const {
  if (!has_hash()) return 0;
  uint64_t bytes = 0;
  for (IndexOrder order : kAllIndexOrders) {
    bytes += Hash(order).MemoryBytes();
  }
  return bytes;
}

uint64_t IndexSet::ApproxMemoryBytes() const {
  return TrieMemoryBytes() + HashMemoryBytes();
}

bool IndexSet::ChooseOrder(uint32_t fixed_mask, IndexOrder* order,
                           int* depth) {
  const int k = std::popcount(fixed_mask);
  for (IndexOrder candidate : kAllIndexOrders) {
    uint32_t prefix_mask = 0;
    for (int level = 0; level < k; ++level) {
      prefix_mask |= 1u << OrderComponent(candidate, level);
    }
    if (prefix_mask == fixed_mask) {
      *order = candidate;
      *depth = k;
      return true;
    }
  }
  return false;
}

bool IndexSet::ChooseOrderWithNext(uint32_t fixed_mask, int next,
                                   IndexOrder* order, int* depth) {
  const int k = std::popcount(fixed_mask);
  KGOA_DCHECK((fixed_mask & (1u << next)) == 0);
  for (IndexOrder candidate : kAllIndexOrders) {
    uint32_t prefix_mask = 0;
    for (int level = 0; level < k; ++level) {
      prefix_mask |= 1u << OrderComponent(candidate, level);
    }
    if (prefix_mask == fixed_mask && OrderComponent(candidate, k) == next) {
      *order = candidate;
      *depth = k;
      return true;
    }
  }
  return false;
}

uint32_t IndexSet::ConstantMask(const TriplePattern& pattern) const {
  uint32_t mask = 0;
  for (int c = 0; c < 3; ++c) {
    if (!pattern[c].is_var()) mask |= 1u << c;
  }
  return mask;
}

Range IndexSet::ConstantRange(const TriplePattern& pattern, IndexOrder* order,
                              int* depth) const {
  const uint32_t mask = ConstantMask(pattern);
  KGOA_CHECK_MSG(ChooseOrder(mask, order, depth),
                 "pattern constants do not form an index prefix");
  const TrieIndex& index = Index(*order);
  switch (*depth) {
    case 0:
      return index.Root();
    case 1:
      return Depth1(*order, pattern[OrderComponent(*order, 0)].term());
    case 2:
      return Depth2(*order, pattern[OrderComponent(*order, 0)].term(),
                    pattern[OrderComponent(*order, 1)].term());
    default: {
      // All three components constant: narrow the depth-2 range.
      Range r = Depth2(*order, pattern[OrderComponent(*order, 0)].term(),
                       pattern[OrderComponent(*order, 1)].term());
      return index.Narrow(r, 2, pattern[OrderComponent(*order, 2)].term());
    }
  }
}

uint64_t IndexSet::CountMatches(const TriplePattern& pattern) const {
  const uint32_t mask = ConstantMask(pattern);
  IndexOrder order;
  int depth;
  if (ChooseOrder(mask, &order, &depth)) {
    return ConstantRange(pattern, &order, &depth).size();
  }
  // Only {subject, object} lacks a prefix order: scan the subject's SPO
  // range and filter on the object.
  KGOA_DCHECK(mask == 0b101u);
  const TrieIndex& spo = Index(IndexOrder::kSpo);
  const Range r = Depth1(IndexOrder::kSpo, pattern[kSubject].term());
  uint64_t count = 0;
  for (uint32_t pos = r.begin; pos < r.end; ++pos) {
    if (spo.TripleAt(pos).o == pattern[kObject].term()) ++count;
  }
  return count;
}

uint64_t IndexSet::CountDistinctVar(const TriplePattern& pattern,
                                    VarId v) const {
  const int vc = pattern.ComponentOf(v);
  KGOA_CHECK_MSG(vc >= 0, "variable not in pattern");
  const uint32_t mask = ConstantMask(pattern);
  IndexOrder order;
  int depth;
  if (ChooseOrderWithNext(mask, vc, &order, &depth)) {
    switch (depth) {
      case 0:
        return Ndv1(order);
      case 1:
        return Ndv2(order, pattern[OrderComponent(order, 0)].term());
      default: {
        // Two constants fixed: triples are unique, so every value of the
        // remaining component is distinct.
        return Depth2(order, pattern[OrderComponent(order, 0)].term(),
                      pattern[OrderComponent(order, 1)].term())
            .size();
      }
    }
  }
  // Fallback: scan the constant range (or everything) and collect values.
  // Cold fallback: runs once per planner statistic when no index order
  // fits, never per probe. kgoa-lint: allow(unordered-in-hot-path)
  std::unordered_set<TermId> values;
  if (ChooseOrder(mask, &order, &depth)) {
    const Range r = ConstantRange(pattern, &order, &depth);
    const TrieIndex& index = Index(order);
    for (uint32_t pos = r.begin; pos < r.end; ++pos) {
      values.insert(index.TripleAt(pos)[vc]);
    }
  } else {
    KGOA_DCHECK(mask == 0b101u);
    const TrieIndex& spo = Index(IndexOrder::kSpo);
    const Range r = Depth1(IndexOrder::kSpo, pattern[kSubject].term());
    for (uint32_t pos = r.begin; pos < r.end; ++pos) {
      const Triple& t = spo.TripleAt(pos);
      if (t.o == pattern[kObject].term()) values.insert(t[vc]);
    }
  }
  return values.size();
}

}  // namespace kgoa
