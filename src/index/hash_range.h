// Hash indexes from trie key prefixes to sorted-array ranges.
//
// Wander Join and Audit Join need O(1) access to the set of triples
// matching a pattern given the values sampled so far: both the fan-out d_i
// (range size) and a uniform draw from the range. The paper implements this
// with hash indexes over the sorted arrays (section V-A); this class is
// that structure for one TrieIndex. Prefix keys of depth 1 and 2 map to
// ranges, and per-key distinct counts of the next level are kept for the
// tipping-point cardinality estimates. Both depths live in open-addressing
// FlatTables (single contiguous allocation, power-of-two capacity, linear
// probing), so the sampling hot path is one cache-line probe instead of a
// node-based std::unordered_map chase.
#ifndef KGOA_INDEX_HASH_RANGE_H_
#define KGOA_INDEX_HASH_RANGE_H_

#include <cstdint>

#include "src/index/flat_table.h"
#include "src/index/trie_index.h"

namespace kgoa {

// Thread-local probe counters, exported into the MetricsRegistry by the
// benches (src/eval/registry.h). Thread-local keeps the increments off the
// serving pool's shared-cache-line path; each thread sees the probes it
// issued itself.
struct IndexProbeCounters {
  uint64_t depth1_probes = 0;
  uint64_t depth2_probes = 0;
  uint64_t ndv_probes = 0;

  uint64_t Total() const { return depth1_probes + depth2_probes + ndv_probes; }
  void Reset() { *this = IndexProbeCounters{}; }
};

inline thread_local IndexProbeCounters t_index_probes;

class HashRangeIndex {
 public:
  explicit HashRangeIndex(const TrieIndex& index);

  HashRangeIndex(const HashRangeIndex&) = delete;
  HashRangeIndex& operator=(const HashRangeIndex&) = delete;
  HashRangeIndex(HashRangeIndex&&) = default;

  // Range of triples whose level-0 value is v0 (empty range if absent).
  Range Depth1(TermId v0) const {
    ++t_index_probes.depth1_probes;
    const Entry* entry = depth1_.Find(v0);
    return entry == nullptr ? Range{} : entry->range;
  }

  // Range of triples whose level-0/1 values are (v0, v1).
  Range Depth2(TermId v0, TermId v1) const {
    ++t_index_probes.depth2_probes;
    const Range* range = depth2_.Find(PackPair(v0, v1));
    return range == nullptr ? Range{} : *range;
  }

  // Prefetch hints for the batched walk path: hint the home cache line of
  // the depth-1 / depth-2 slot before the corresponding Depth1/Depth2
  // probe a few walks later.
  void PrefetchDepth1(TermId v0) const { depth1_.Prefetch(v0); }
  void PrefetchDepth2(TermId v0, TermId v1) const {
    depth2_.Prefetch(PackPair(v0, v1));
  }

  // Number of distinct level-0 values.
  uint64_t Ndv1() const { return depth1_.size(); }

  // Number of distinct level-1 values under level-0 value v0 (0 if absent).
  uint64_t Ndv2(TermId v0) const {
    ++t_index_probes.ndv_probes;
    const Entry* entry = depth1_.Find(v0);
    return entry == nullptr ? 0 : entry->child_count;
  }

  // Entry counts (for memory accounting).
  uint64_t Depth1Entries() const { return depth1_.size(); }
  uint64_t Depth2Entries() const { return depth2_.size(); }

  // Resident bytes of the two flat slot arrays.
  uint64_t MemoryBytes() const {
    return depth1_.MemoryBytes() + depth2_.MemoryBytes();
  }

 private:
  struct Entry {
    Range range;
    uint32_t child_count = 0;  // distinct values at the next level
  };

  // kInvalidTerm never occurs as a dictionary-dense key; the all-ones pair
  // would require both halves to be kInvalidTerm.
  FlatTable<TermId, Entry> depth1_{kInvalidTerm};
  FlatTable<uint64_t, Range> depth2_{~0ull};
};

}  // namespace kgoa

#endif  // KGOA_INDEX_HASH_RANGE_H_
