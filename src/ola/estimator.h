// Per-group online estimators with large-sample confidence intervals.
//
// Both Wander Join and Audit Join produce one Horvitz-Thompson style
// contribution per (walk, group); the grouped estimate after N walks is
// sum / N per group (Figure 7, line 24), and the 0.95 confidence interval
// follows Haas's large-sample (CLT) construction used by Wander Join
// (section IV-C).
//
// The per-group accumulators live in an insertion-ordered flat arena
// (FlatAccumulator): AddContribution is on every walk's hot path, and the
// deterministic iteration order keeps Merge's floating-point folds
// bit-stable across runs.
#ifndef KGOA_OLA_ESTIMATOR_H_
#define KGOA_OLA_ESTIMATOR_H_

#include <cstdint>
#include <unordered_map>  // kgoa-lint: allow(unordered-in-hot-path) result type only

#include "src/index/flat_table.h"
#include "src/rdf/types.h"

namespace kgoa {

class GroupedEstimates {
 public:
  // Adds this walk's contribution to `group`. Call at most once per group
  // per walk (a walk that reaches several groups through a partial exact
  // computation calls it once for each), then call EndWalk exactly once.
  void AddContribution(TermId group, double value);

  // Finishes a walk. Every walk — including rejected ones, whose
  // contribution is zero — increments the denominator.
  void EndWalk(bool rejected);

  uint64_t walks() const { return walks_; }
  uint64_t rejected_walks() const { return rejected_; }
  double RejectionRate() const {
    return walks_ == 0 ? 0.0 : static_cast<double>(rejected_) /
                                   static_cast<double>(walks_);
  }

  // Current estimate for `group` (0 when never contributed to).
  double Estimate(TermId group) const;

  // Half-width of the large-sample confidence interval for `group` at the
  // z value given (default: 0.95 two-sided).
  double CiHalfWidth(TermId group, double z = 1.959963984540054) const;

  // Groups with at least one nonzero contribution. Node-based map is the
  // deliberate result-container exception: callers index the snapshot by
  // arbitrary group, off the walk hot path.
  // kgoa-lint: allow(unordered-in-hot-path) result container
  std::unordered_map<TermId, double> Estimates() const;

  // Folds another estimator's accumulators into this one. Sound when the
  // other estimator's walks are independent and identically distributed
  // with this one's (same query, same walk plan, different seeds) — the
  // basis of parallel online aggregation (src/ola/parallel.h). Folds in
  // the other estimator's insertion order, so merging the same sequence
  // of partials always produces bit-identical sums.
  void Merge(const GroupedEstimates& other);

 private:
  struct Accumulator {
    double sum = 0;
    double sum_squares = 0;
  };

  FlatAccumulator<TermId, Accumulator> groups_;
  uint64_t walks_ = 0;
  uint64_t rejected_ = 0;
};

// Per-engine work counters, merged across workers. Counters an engine does
// not track stay zero (e.g. tipping counters under Wander Join).
//
// The reach_* counters describe the reach-probability cache of the
// distinct estimator. With a shared cache they are filled once per job by
// the serving core (as this job's delta over the cache's atomic shard
// counters) rather than per worker; they are exact totals but
// scheduling-dependent — see src/core/reach.h — so they are excluded from
// the walk-budget determinism contract.
struct OlaCounters {
  uint64_t tipped_walks = 0;     // Audit Join: walks finished by tipping
  uint64_t full_walks = 0;       // walks sampled to completion
  uint64_t tip_aborts = 0;       // Audit Join: enumeration-cap aborts
  uint64_t ctj_cache_hits = 0;   // Audit Join: suffix-count memo hits
  uint64_t duplicate_walks = 0;  // Wander Join distinct mode
  uint64_t batched_walks = 0;    // walks run through the SoA batched path
  uint64_t reach_hits = 0;       // reach cache: memoized lookups served
  uint64_t reach_misses = 0;     // reach cache: entries computed
  uint64_t reach_contention = 0;  // reach cache: contended shard inserts
  uint64_t reach_entries = 0;     // reach cache: resident entries (gauge)

  void Merge(const OlaCounters& other) {
    tipped_walks += other.tipped_walks;
    full_walks += other.full_walks;
    tip_aborts += other.tip_aborts;
    ctj_cache_hits += other.ctj_cache_hits;
    duplicate_walks += other.duplicate_walks;
    batched_walks += other.batched_walks;
    reach_hits += other.reach_hits;
    reach_misses += other.reach_misses;
    reach_contention += other.reach_contention;
    // A gauge, not a rate: max keeps the merged value meaningful whether
    // the workers shared one cache or owned private ones.
    reach_entries = reach_entries > other.reach_entries
                        ? reach_entries
                        : other.reach_entries;
  }
};

}  // namespace kgoa

#endif  // KGOA_OLA_ESTIMATOR_H_
