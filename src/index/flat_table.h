// Minimal open-addressing hash table for the index hot path: power-of-two
// capacity in a single contiguous slot array, Fibonacci multiplicative
// hashing, linear probing. The table is sized once for an exact key count
// (load factor <= 0.5, so probes terminate and stay short) and never grows
// or deletes — HashRangeIndex knows its entry counts up front. A lookup is
// one multiply, one shift and a forward scan that stays within one or two
// cache lines, replacing the node chase of std::unordered_map.
#ifndef KGOA_INDEX_FLAT_TABLE_H_
#define KGOA_INDEX_FLAT_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/contract.h"

// Probe-chain bound contract: with power-of-two capacity and load factor
// <= 0.5 every probe chain terminates within `capacity` steps, so a chain
// that exceeds it can only mean slot-array corruption. Zero cost unless
// the KGOA_DCHECK level is active.
#if KGOA_CONTRACTS_ENABLED
#define KGOA_PROBE_GUARD(name) std::size_t name = 0
#define KGOA_PROBE_STEP(name) KGOA_DCHECK_LE(++(name), slots_.size())
#else
#define KGOA_PROBE_GUARD(name) \
  do {                         \
  } while (0)
#define KGOA_PROBE_STEP(name) \
  do {                        \
  } while (0)
#endif

namespace kgoa {

// Key is an unsigned integer type; `empty_key` must never be inserted.
template <typename Key, typename Value>
class FlatTable {
 public:
  explicit FlatTable(Key empty_key) : empty_key_(empty_key) {
    slots_.assign(2, Slot{empty_key_, Value{}});  // Find is safe pre-Reset
  }

  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;
  FlatTable(FlatTable&&) = default;
  FlatTable& operator=(FlatTable&&) = default;

  // Clears the table and sizes it for exactly `expected` InsertUnique
  // calls: capacity is the smallest power of two >= 2 * expected.
  void Reset(std::size_t expected) {
    std::size_t capacity = 2;
    while (capacity < expected * 2) capacity <<= 1;
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
    slots_.assign(capacity, Slot{empty_key_, Value{}});
  }

  // Empties the table, keeping the current capacity.
  void Clear() {
    size_ = 0;
    std::fill(slots_.begin(), slots_.end(), Slot{empty_key_, Value{}});
  }

  // Inserts `key` (which must not be present) and returns its value slot.
  // The caller sized the table via Reset; capacity never grows here, so
  // the load-factor contract is what keeps probe chains bounded.
  Value& InsertUnique(Key key) {
    KGOA_DCHECK_NE(key, empty_key_);
    KGOA_DCHECK_LT(size_ * 2, slots_.size());  // load factor <= 0.5
    ++size_;
    KGOA_PROBE_GUARD(probes);
    for (std::size_t i = Bucket(key);; i = (i + 1) & (slots_.size() - 1)) {
      KGOA_PROBE_STEP(probes);
      Slot& slot = slots_[i];
      if (slot.key == empty_key_) {
        slot.key = key;
        return slot.value;
      }
      KGOA_DCHECK_NE(slot.key, key);
    }
  }

  // Returns the value for `key`, inserting a default-constructed one if
  // absent (growing to keep the load factor <= 0.5). For dynamically
  // sized memo tables (CTJ suffix caches) where the key population is
  // not known up front.
  Value& FindOrInsert(Key key, bool* inserted) {
    KGOA_DCHECK_NE(key, empty_key_);
    KGOA_PROBE_GUARD(probes);
    for (std::size_t i = Bucket(key);; i = (i + 1) & (slots_.size() - 1)) {
      KGOA_PROBE_STEP(probes);
      Slot& slot = slots_[i];
      if (slot.key == key) {
        *inserted = false;
        return slot.value;
      }
      if (slot.key == empty_key_) {
        *inserted = true;
        if ((size_ + 1) * 2 > slots_.size()) {
          Grow();
          return FindOrInsert(key, inserted);  // slot moved; re-probe
        }
        ++size_;
        slot.key = key;
        return slot.value;
      }
    }
  }

  // Hints the home cache line for `key` into L1 ahead of a Find. Batched
  // probe loops (kernels::PrefetchPipeline) issue a window of these before
  // consuming the corresponding Finds in order, hiding the random-access
  // load latency behind the rest of the batch.
  void Prefetch(Key key) const {
    __builtin_prefetch(slots_.data() + Bucket(key), /*rw=*/0, /*locality=*/1);
  }

  // Returns the value for `key`, or nullptr if absent.
  const Value* Find(Key key) const {
    KGOA_PROBE_GUARD(probes);
    for (std::size_t i = Bucket(key);; i = (i + 1) & (slots_.size() - 1)) {
      KGOA_PROBE_STEP(probes);
      const Slot& slot = slots_[i];
      if (slot.key == key) return &slot.value;
      if (slot.key == empty_key_) return nullptr;
    }
  }

  std::size_t size() const { return size_; }

  uint64_t MemoryBytes() const {
    return static_cast<uint64_t>(slots_.size()) * sizeof(Slot);
  }

 private:
  struct Slot {
    Key key;
    Value value;
  };

  std::size_t Bucket(Key key) const {
    return static_cast<std::size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // Doubles capacity and rehashes every resident entry. Only reached from
  // FindOrInsert; Reset-sized tables never grow.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.size() * 2;
    shift_ = 64 - std::countr_zero(capacity);
    slots_.assign(capacity, Slot{empty_key_, Value{}});
    const std::size_t resident = size_;
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.key == empty_key_) continue;
      InsertUnique(slot.key) = slot.value;
    }
    KGOA_DCHECK_EQ(size_, resident);  // rehash must not lose or dup keys
  }

  Key empty_key_;
  int shift_ = 63;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
};

// Flat accumulation map: open-addressing index over a dense, insertion-
// ordered item array. Built for hot accumulator loops (per-group walk
// contributions, per-pair audit masses) that FlatTable cannot serve
// because they need (a) no reserved sentinel key — kInvalidTerm is a
// legitimate group key on the audit path — and (b) deterministic
// iteration for ordered merges. A slot stores `item index + 1` (0 =
// empty), so clearing is O(live entries), not O(capacity), and copying
// the whole structure (snapshot publication) is two vector copies.
template <typename Key, typename Value>
class FlatAccumulator {
 public:
  struct Item {
    Key key;
    uint32_t slot;  // home slot in slots_, kept in sync across Grow
    Value value;
  };

  FlatAccumulator() { slots_.assign(8, 0); }

  // Returns the value for `key`, default-constructing it if absent. The
  // reference is invalidated by the next FindOrAdd (dense array growth).
  Value& FindOrAdd(Key key) {
    KGOA_PROBE_GUARD(probes);
    for (std::size_t i = Bucket(key);; i = (i + 1) & (slots_.size() - 1)) {
      KGOA_PROBE_STEP(probes);
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        if ((items_.size() + 1) * 2 > slots_.size()) {
          Grow();
          return FindOrAdd(key);  // slot moved; re-probe
        }
        KGOA_DCHECK_LT(items_.size(), UINT32_MAX);
        slots_[i] = static_cast<uint32_t>(items_.size()) + 1;
        items_.push_back(Item{key, static_cast<uint32_t>(i), Value{}});
        return items_.back().value;
      }
      if (items_[slot - 1].key == key) return items_[slot - 1].value;
    }
  }

  const Value* Find(Key key) const {
    KGOA_PROBE_GUARD(probes);
    for (std::size_t i = Bucket(key);; i = (i + 1) & (slots_.size() - 1)) {
      KGOA_PROBE_STEP(probes);
      const uint32_t slot = slots_[i];
      if (slot == 0) return nullptr;
      if (items_[slot - 1].key == key) return &items_[slot - 1].value;
    }
  }

  bool Contains(Key key) const { return Find(key) != nullptr; }

  // Entries in insertion order — deterministic, which is what keeps
  // merges and FP summations bit-stable across runs.
  const std::vector<Item>& items() const { return items_; }

  // In-place update while iterating items() by index (the slot index is
  // not exposed, so the table invariants cannot be broken this way).
  Value& ValueAt(std::size_t index) { return items_[index].value; }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  // O(live entries): only the slots the items occupy are reset.
  void Clear() {
    for (const Item& item : items_) slots_[item.slot] = 0;
    items_.clear();
  }

  uint64_t MemoryBytes() const {
    return static_cast<uint64_t>(slots_.size()) * sizeof(uint32_t) +
           static_cast<uint64_t>(items_.capacity()) * sizeof(Item);
  }

 private:
  std::size_t Bucket(Key key) const {
    const int shift = 64 - std::countr_zero(slots_.size());
    return static_cast<std::size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift);
  }

  // Doubles the slot index and re-homes every item (items_ is untouched,
  // so iteration order and value references by index survive).
  void Grow() {
    slots_.assign(slots_.size() * 2, 0);
    for (std::size_t k = 0; k < items_.size(); ++k) {
      std::size_t i = Bucket(items_[k].key);
      KGOA_PROBE_GUARD(probes);
      while (slots_[i] != 0) {
        KGOA_PROBE_STEP(probes);
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i] = static_cast<uint32_t>(k) + 1;
      items_[k].slot = static_cast<uint32_t>(i);
    }
  }

  std::vector<uint32_t> slots_;  // item index + 1; 0 = empty
  std::vector<Item> items_;      // dense, insertion order
};

}  // namespace kgoa

#endif  // KGOA_INDEX_FLAT_TABLE_H_
