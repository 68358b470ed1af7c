// Wander Join (Li, Wu, Yi & Zhao, SIGMOD 2016) — online aggregation via
// random walks, section IV-C of the paper.
//
// Each walk samples one tuple per pattern along the walk order, uniformly
// among the tuples consistent with the previously sampled tuple. A
// completed walk gamma contributes the Horvitz-Thompson estimate
// C_wj(gamma) = prod d_i = 1 / Pr(gamma) to its group's estimator; a walk
// that dead-ends is rejected and contributes zero. Grouped estimates divide
// by the total number of walks.
//
// Wander Join has no unbiased estimator for COUNT DISTINCT; following the
// paper's experimental setup, this implementation augments it with the
// Ripple Join technique (Haas & Hellerstein): remember the (group, beta)
// pairs seen so far and reject re-sampled duplicates. That estimator is
// biased — demonstrating this is part of the paper's motivation for Audit
// Join.
//
// Wander Join is one of the paper's offline baselines (Figs. 8-11): its
// callers (RunOla, the figure benches) build it directly. Charts are
// served by Audit Join through the serving core (src/ola/parallel.h).
#ifndef KGOA_OLA_WANDER_H_
#define KGOA_OLA_WANDER_H_

#include <functional>
#include <vector>

#include "src/index/flat_table.h"
#include "src/index/index_set.h"
#include "src/ola/estimator.h"
#include "src/ola/walk_plan.h"
#include "src/query/chain_query.h"
#include "src/util/rng.h"

namespace kgoa {

class WanderJoin {
 public:
  struct Options {
    uint64_t seed = 1;
    // Walk order over pattern indices; empty = forward. The evaluation
    // harness selects the best candidate per query like the paper does.
    std::vector<int> walk_order;
    // Walks advanced per structure-of-arrays batch (0 = kDefaultWalkBatch,
    // 1 = unbatched, the reference path every width is checked against).
    // Purely a throughput knob: per-walk counter-derived RNG (WalkSeed)
    // makes estimates bit-identical for every width.
    uint32_t batch_walks = 0;
  };

  WanderJoin(const IndexSet& indexes, const ChainQuery& query)
      : WanderJoin(indexes, query, Options()) {}
  WanderJoin(const IndexSet& indexes, const ChainQuery& query,
             Options options);

  // The walk plan points into the stored query; not copyable or movable.
  WanderJoin(const WanderJoin&) = delete;
  WanderJoin& operator=(const WanderJoin&) = delete;

  // Performs one random walk and updates the estimators.
  void RunOneWalk();
  void RunWalks(uint64_t count);

  const GroupedEstimates& estimates() const { return estimates_; }
  const WalkPlan& plan() const { return plan_; }

  // Walks whose sampled (group, beta) pair had been seen before (distinct
  // mode only). These contribute zero but are not dead-end rejections.
  uint64_t duplicate_walks() const { return duplicates_; }

  // Walks executed through the structure-of-arrays batched path.
  uint64_t batched_walks() const { return batched_walks_; }

  // Verification hook: enumerates every possible walk with its probability
  // and the contribution it would add (ignoring the distinct seen-set,
  // which makes walks non-independent). Used by the unbiasedness property
  // tests: the probability-weighted sum of contributions per group must
  // equal the exact non-distinct count.
  void EnumerateAllWalks(
      const std::function<void(double probability, TermId group,
                               double contribution)>& callback) const;

 private:
  // `batch` walks advanced level-synchronously; bit-identical to the
  // unbatched loop (see the .cc walk-order argument).
  void RunWalkBatch(uint32_t batch);

  // kgoa-lint: allow(raw-graph-retention) walk engine scoped inside one pinned serving call
  const IndexSet& indexes_;
  ChainQuery query_;
  Options options_;
  WalkPlan plan_;
  GroupedEstimates estimates_;
  // Re-seeded per walk from WalkSeed(options_.seed, walk_counter_).
  Rng rng_;
  uint64_t walk_counter_ = 0;
  std::vector<TermId> state_;
  // Ripple seen-set, probed once per completed distinct walk. Flat table
  // keyed by PackPair(group, beta); the ~0 sentinel is unreachable (it
  // would need group = beta = kInvalidTerm, impossible for a completed
  // walk).
  FlatTable<uint64_t, uint8_t> seen_pairs_{~0ull};
  uint64_t duplicates_ = 0;
  uint64_t batched_walks_ = 0;

  // Structure-of-arrays batch state, reused across batches. Lane index ==
  // walk order within the batch.
  enum LaneState : uint8_t { kLaneAlive = 0, kLaneRejected = 1 };
  std::vector<Rng> batch_rng_;
  std::vector<TermId> batch_state_;  // walk-major: [lane * num_slots + slot]
  std::vector<double> batch_weight_;
  std::vector<TermId> batch_bound_;
  std::vector<Range> batch_range_;
  std::vector<uint32_t> batch_pos_;
  std::vector<uint8_t> batch_done_;   // LaneState
  std::vector<uint32_t> batch_live_;  // alive lane indices, walk order
};

}  // namespace kgoa

#endif  // KGOA_OLA_WANDER_H_
