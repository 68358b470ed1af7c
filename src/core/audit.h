// Audit Join — the paper's contribution (section IV-D, Figure 7).
//
// Audit Join runs Wander-Join random walks, but at every step estimates the
// number of completions of the sampled prefix delta (PostgreSQL-style
// composition of join-size statistics, seeded with the actual next-step
// fan-out). When the estimate falls below the tipping threshold, the
// remainder of the walk is replaced by an exact partial computation over
// the trie indexes (the CTJ role):
//
//   * without DISTINCT, the walk contributes |Gamma_delta| / Pr(delta) to
//     each group reached by a completion — Proposition IV.1 shows this
//     estimator is unbiased;
//   * with DISTINCT, every completion (a, b) of delta contributes its walk
//     mass w(a, b) divided by Pr(a, b) (the probability that a walk
//     completes with group a and counted value b, see src/core/reach.h) —
//     Proposition IV.2 shows the resulting estimator of the distinct count
//     is unbiased. A full, untipped walk is the special case w(a, b) =
//     Pr(delta), contributing 1 / Pr(a, b).
//
// Estimates for every group divide by the total number of walks, rejected
// walks included (Figure 7, line 24).
//
// Contribution batching: per-walk contributions are buffered and flushed
// in walk order — distinct full walks defer their Pr(a, b) division to the
// flush, where the pending pairs run as a tight prefetch-then-probe loop
// over the reach cache's shard arrays. Because the flush preserves walk
// order, the per-group floating-point accumulation sequence is a function
// of the walk sequence alone, independent of batch boundaries — which is
// what keeps parallel walk-budget runs bit-identical across thread counts.
#ifndef KGOA_CORE_AUDIT_H_
#define KGOA_CORE_AUDIT_H_

#include <functional>
#include <memory>
#include <span>
#include <unordered_map>  // kgoa-lint: allow(unordered-in-hot-path) verification hook only
#include <vector>

#include "src/core/reach.h"
#include "src/core/tipping.h"
#include "src/index/flat_table.h"
#include "src/index/index_set.h"
#include "src/ola/estimator.h"
#include "src/ola/walk_plan.h"
#include "src/query/chain_query.h"
#include "src/util/rng.h"

namespace kgoa {

class AuditJoin {
 public:
  struct Options {
    uint64_t seed = 1;
    // Walk order over pattern indices; empty = forward.
    std::vector<int> walk_order;
    // Tip when the estimated number of prefix completions is at most this.
    double tipping_threshold = 64.0;
    // Ablation switch: with tipping disabled (and a non-distinct query)
    // Audit Join degenerates to Wander Join.
    bool enable_tipping = true;
    // Paper-faithful (false): the tipping decision is static per walk
    // position — the composed PostgreSQL-style estimate of the remaining
    // suffix size (section IV-D); the walk switches to exact computation
    // at the first position whose static estimate is below the threshold,
    // so a tipped walk never dead-ends (it yields an exact partial count,
    // possibly zero). Adaptive (true): the estimate is additionally seeded
    // with the actual fan-out of the next step, making the decision
    // prefix-dependent. Both are unbiased.
    bool adaptive_tipping = false;
    // When set, this engine audits against the given shared
    // reach-probability cache instead of building a private one. The cache
    // must have been built for an equivalent walk plan (same query, same
    // pattern order — contract-checked) and must outlive the engine.
    // Sharing one cache across the workers of a parallel run is what
    // makes each distinct (a, b) pair cost one audit per run instead of
    // one per thread; see src/core/reach.h for why it preserves
    // bit-identical estimates.
    ReachProbability* shared_reach = nullptr;
    // Walks advanced per structure-of-arrays batch: each level's hash
    // probes and triple fetches run as a prefetch-pipelined batch across
    // the walks. 0 = default (kDefaultWalkBatch); 1 = unbatched, the
    // reference path every batched width is checked against. Purely a
    // throughput knob: per-walk counter-derived RNG (WalkSeed) makes the
    // estimates bit-identical for every batch width.
    uint32_t batch_walks = 0;
  };

  AuditJoin(const IndexSet& indexes, const ChainQuery& query)
      : AuditJoin(indexes, query, Options()) {}
  AuditJoin(const IndexSet& indexes, const ChainQuery& query,
            Options options);

  AuditJoin(const AuditJoin&) = delete;
  AuditJoin& operator=(const AuditJoin&) = delete;

  void RunOneWalk();
  void RunWalks(uint64_t count);

  const GroupedEstimates& estimates() const { return estimates_; }
  const WalkPlan& plan() const { return plan_; }
  const TippingEstimator& tipping() const { return tipping_; }

  uint64_t tipped_walks() const { return tipped_; }
  uint64_t full_walks() const { return full_; }
  uint64_t tip_aborts() const { return tip_aborts_; }
  // Walks executed through the structure-of-arrays batched path.
  uint64_t batched_walks() const { return batched_walks_; }
  uint64_t suffix_cache_hits() const { return count_cache_hits_; }
  bool owns_reach() const { return owned_reach_ != nullptr; }

  // The counters above as one OlaCounters. Reach stats come only from an
  // owned cache: a shared cache is reported once by its owner (the
  // serving job or the session registry), so merging the counters of the
  // engines that share it cannot multiply it.
  OlaCounters counters() const;

  // Verification hook mirroring RunOneWalk's decisions exactly: enumerates
  // every stoppable prefix delta with its probability and the contribution
  // map the estimator would add. The probability-weighted sum per group
  // must equal the exact (distinct or non-distinct) count — the
  // deterministic form of Propositions IV.1 / IV.2 used by the tests.
  // Node-based map is deliberate: this is a verification interface whose
  // callers index by arbitrary group, never a per-walk hot path.
  // kgoa-lint: allow(unordered-in-hot-path) verification hook result type
  using ContributionMap = std::unordered_map<TermId, double>;
  void EnumerateAllWalks(
      const std::function<void(double probability,
                               const ContributionMap& contributions)>&
          callback);

 private:
  // Computes the contributions of tipping at walk position q0 with the
  // current prefix state and weight = 1/Pr(delta). Returns false when the
  // enumeration cap is hit (caller resumes sampling).
  bool TippedContributions(int q0, std::span<TermId> state, double weight,
                           ContributionMap* out);

  // Exact number of completions of steps q..n-1 given in-value `value`;
  // memoized per (step, value) — valid because SingleSegmentFrom(q) holds
  // whenever this is called. This cache is Audit Join's reuse of CTJ
  // caching across walks (section IV-D).
  uint64_t CountFrom(int q, TermId value);

  // Recursive exact enumeration of the remaining steps; returns false on
  // budget exhaustion. Accumulates either per-alpha counts (non-distinct)
  // or per-(a, b) walk mass (distinct) into the insertion-ordered arena.
  bool EnumerateRemaining(int q, std::span<TermId> state, double mass,
                          uint64_t* budget,
                          FlatAccumulator<uint64_t, double>* acc);

  // One walk, with contributions deferred into pending_ (flushed by the
  // public entry points).
  void RunOneWalkInternal();

  // `batch` walks advanced level-synchronously (see the .cc for the phase
  // structure and the walk-order argument that keeps it bit-identical to
  // batch = 1). Contributions land in pending_ in walk order.
  void RunWalkBatch(uint32_t batch);

  // Drains pending_ in walk order: one prefetch pass over the reach
  // cache's shards for the pairs still owing their Pr division, then one
  // in-order probe-and-accumulate pass.
  void FlushContributions();

  // kgoa-lint: allow(raw-graph-retention) walk engine scoped inside one pinned serving call
  const IndexSet& indexes_;
  ChainQuery query_;
  Options options_;
  WalkPlan plan_;
  TippingEstimator tipping_;
  std::unique_ptr<ReachProbability> owned_reach_;  // null when shared
  // Concurrency contract (capability model, DESIGN.md §11): AuditJoin
  // itself is single-threaded — every field here is engine-private — but
  // `reach_` may point at a cache SHARED with engines on other threads
  // (the slots of a ServingCore job, or concurrent jobs on one warm
  // session cache). That is safe without a lock on this side because
  // ReachProbability is internally synchronized: its ShardedFlatTable
  // memos take striped per-shard kgoa::Mutexes on insert and are
  // lock-free (acquire-load) on probe, and memo values are pure functions
  // of (indexes, plan), so racing inserts are benign
  // (src/index/concurrent_flat_table.h).
  ReachProbability* reach_;
  GroupedEstimates estimates_;
  // Re-seeded per walk from WalkSeed(options_.seed, walk_counter_): walk
  // draws are a pure function of the walk index, independent of batching.
  Rng rng_;
  uint64_t walk_counter_ = 0;
  std::vector<TermId> state_;

  // next_in_component_[q]: component of step q's pattern carrying step
  // q+1's in-value, when steps q, q+1 chain directly (-1 otherwise).
  std::vector<int> next_in_component_;
  std::vector<FlatAccumulator<TermId, uint64_t>> count_memo_;
  // In-values whose tip enumeration at a step exceeded the budget once;
  // later walks skip the attempt. The decision stays a deterministic
  // function of the prefix (and of earlier, independent walks), so the
  // estimator stays unbiased.
  std::vector<FlatAccumulator<TermId, uint8_t>> abort_memo_;
  uint64_t count_cache_hits_ = 0;

  // Scratch arena reused by TippedContributions across walks.
  FlatAccumulator<uint64_t, double> tip_acc_;

  // Deferred per-walk contributions, in walk order.
  struct PendingContribution {
    TermId group;
    double value;       // final contribution, unless needs_pr
    uint64_t pair_key;  // PackPair(a, b) when needs_pr
    bool needs_pr;      // true: contribution is 1 / PrAB(a, b)
  };
  std::vector<PendingContribution> pending_;

  // Structure-of-arrays batch state, reused across batches. A lane is one
  // in-flight walk; done lanes keep their slot so lane index == walk
  // order within the batch.
  enum LaneState : uint8_t { kLaneAlive = 0, kLaneDone = 1, kLaneRejected = 2 };
  std::vector<Rng> batch_rng_;
  std::vector<TermId> batch_state_;  // walk-major: [lane * num_slots + slot]
  std::vector<double> batch_weight_;
  std::vector<TermId> batch_bound_;
  std::vector<Range> batch_range_;
  std::vector<uint32_t> batch_pos_;
  std::vector<uint8_t> batch_done_;  // LaneState
  std::vector<uint32_t> batch_live_; // alive lane indices, walk order
  std::vector<std::vector<PendingContribution>> batch_contrib_;

  uint64_t tipped_ = 0;
  uint64_t full_ = 0;
  uint64_t tip_aborts_ = 0;
  uint64_t batched_walks_ = 0;
};

}  // namespace kgoa

#endif  // KGOA_CORE_AUDIT_H_
