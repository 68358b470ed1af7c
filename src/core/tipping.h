// Tipping-point join-size estimation (section IV-D, "Tipping Point").
//
// Audit Join decides when to replace the remainder of a random walk with an
// exact partial computation by estimating the number of completions of the
// walk. The paper uses the simple PostgreSQL planner technique: the size of
// R join S on attribute x is estimated as |R| * |S| / max(ndv_R(x),
// ndv_S(x)); for more than two patterns the estimates compose by
// multiplication. Per walk, the estimate is seeded with the actual fan-out
// of the next step (an O(1) hash lookup), making the decision adaptive to
// the sampled prefix.
#ifndef KGOA_CORE_TIPPING_H_
#define KGOA_CORE_TIPPING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/index/index_set.h"
#include "src/ola/walk_plan.h"
#include "src/util/contract.h"

namespace kgoa {

// Hard cap on tuples visited by one partial exact computation. If the
// estimate was wrong and enumeration exceeds this, the walk resumes
// sampling instead (a deterministic function of the prefix, so
// unbiasedness is preserved).
inline constexpr uint64_t kMaxTipEnumeration = 4096;

class TippingEstimator {
 public:
  TippingEstimator(const IndexSet& indexes, const WalkPlan& plan);

  // Statistical estimate of the number of completions of walk steps
  // q..n-1 per value entering step q: the product of the per-step expected
  // fan-outs |G_r| / max(ndv of the join variable on either side).
  // StaticSuffixEstimate(n) == 1.
  double StaticSuffixEstimate(int q) const {
    // Tipping-decision precondition: q indexes a step or the one-past-end
    // sentinel, and the composed estimate is a non-negative cardinality.
    KGOA_DCHECK(q >= 0 && static_cast<std::size_t>(q) < suffix_.size());
    KGOA_DCHECK_GE(suffix_[q], 0.0);
    return suffix_[q];
  }

  // Per-walk estimate once step q's actual fan-out d_q is known.
  double Estimate(uint64_t d_q, int q) const {
    return static_cast<double>(d_q) * StaticSuffixEstimate(q + 1);
  }

 private:
  std::vector<double> suffix_;
};

}  // namespace kgoa

#endif  // KGOA_CORE_TIPPING_H_
