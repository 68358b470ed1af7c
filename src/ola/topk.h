// Top-K chart serving: a running lower bound on the K-th displayed
// group's estimate, group pruning against it, and the "displayed chart
// converged" signal.
//
// A chart rendered from GroupedEstimates only shows the K largest
// groups. Once the K-th displayed group's confidence interval has a
// lower bound L, any group whose upper bound sits below L can never
// enter the display — walks that land on it are wasted, and audits can
// skip its whole equal-group runs. TopKTracker maintains L and the
// pruned set from the periodically merged slot partials; engines consult
// an immutable GroupFilter snapshot (swapped atomically under the
// tracker's mutex) so the walk hot path takes no locks.
//
// Pruning changes which walks complete, so it follows the job mode:
// deadline-mode jobs prune, budget-mode jobs keep the tracker in
// observe-only mode (the convergence signal without the filter) to
// preserve the bit-identical-across-pool-sizes contract.
#ifndef KGOA_OLA_TOPK_H_
#define KGOA_OLA_TOPK_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/index/flat_table.h"
#include "src/ola/estimator.h"
#include "src/rdf/types.h"
#include "src/util/sync.h"

namespace kgoa {

// No pruning and no convergence signal before this many merged walks:
// early intervals are too loose to trust the K-th lower bound.
inline constexpr uint64_t kTopKMinWalks = 1024;

struct TopKOptions {
  // Number of displayed chart groups. 0 disables top-K serving entirely.
  int k = 0;
  // A displayed group counts as converged when its CI half-width is
  // within this fraction of its estimate.
  double ci_target = 0.05;
};

// Immutable snapshot of the groups pruned out of top-K contention.
// Groups never seen by any walk are never pruned (their bounds are
// unknown), so Pruned() is exact, not conservative-in-the-wrong-
// direction: a false `true` is impossible.
class GroupFilter {
 public:
  bool Pruned(TermId group) const { return pruned_.Contains(group); }
  std::size_t size() const { return pruned_.size(); }

 private:
  friend class TopKTracker;
  FlatAccumulator<TermId, uint8_t> pruned_;
};

// Tracks the displayed top-K set, the K-th lower bound, the pruned
// filter and the displayed-convergence flag. Update() is called with the
// merged (slot-ordered) estimates under the serving core's snapshot
// pacing; readers take FilterSnapshot() / displayed_converged() from any
// thread.
class TopKTracker {
 public:
  // `prune`: publish a filter of the groups that can no longer enter the
  // display, so engines skip walks (and audit runs) bound to them. False
  // keeps the tracker observe-only.
  TopKTracker(TopKOptions options, bool prune)
      : options_(options), prune_(prune) {}

  TopKTracker(const TopKTracker&) = delete;
  TopKTracker& operator=(const TopKTracker&) = delete;

  bool enabled() const { return options_.k > 0; }
  const TopKOptions& options() const { return options_; }

  // Recomputes bounds from a merged estimate snapshot. Displayed set =
  // top K by (estimate desc, group id asc) — the id tiebreak keeps the
  // set deterministic. Pruned = {g not displayed : hi(g) < lo(K-th)}.
  // Converged = walks >= kTopKMinWalks, every displayed group's relative CI
  // within ci_target, and every seen non-displayed group separated.
  void Update(const GroupedEstimates& merged);

  // Current filter; nullptr when pruning is off or nothing is pruned
  // yet. The snapshot is immutable — engines may read it lock-free for a
  // whole quantum.
  std::shared_ptr<const GroupFilter> FilterSnapshot() const {
    MutexLock lock(mutex_);
    return filter_;
  }

  bool displayed_converged() const {
    return converged_.load(std::memory_order_acquire);
  }

  double kth_lower_bound() const {
    MutexLock lock(mutex_);
    return kth_lower_;
  }

  uint64_t pruned_groups() const {
    MutexLock lock(mutex_);
    return pruned_count_;
  }

 private:
  const TopKOptions options_;
  const bool prune_;
  mutable Mutex mutex_;
  // The published filter is an immutable snapshot: the pointer swap is
  // guarded; the pointee never mutates after publication, so engines
  // read it lock-free for a whole quantum.
  std::shared_ptr<const GroupFilter> filter_ KGOA_GUARDED_BY(mutex_);
  double kth_lower_ KGOA_GUARDED_BY(mutex_) = 0;
  uint64_t pruned_count_ KGOA_GUARDED_BY(mutex_) = 0;
  std::atomic<bool> converged_{false};
};

}  // namespace kgoa

#endif  // KGOA_OLA_TOPK_H_
