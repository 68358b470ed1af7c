// Time-series runner for the online-aggregation experiments: runs Wander
// Join or Audit Join for a wall-clock budget, recording the mean absolute
// error and mean confidence-interval width at evenly spaced checkpoints —
// the data behind Figures 8, 9 and 10 — plus the rejection-rate statistics
// behind Figure 11.
#ifndef KGOA_EVAL_RUNNER_H_
#define KGOA_EVAL_RUNNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/index/index_set.h"
#include "src/join/result.h"
#include "src/ola/estimator.h"
#include "src/query/chain_query.h"

namespace kgoa {

enum class OlaAlgo { kWander, kAudit };

inline const char* OlaAlgoName(OlaAlgo algo) {
  return algo == OlaAlgo::kWander ? "WJ" : "AJ";
}

struct OlaRunOptions {
  OlaAlgo algo = OlaAlgo::kAudit;
  double duration_seconds = 2.0;
  int checkpoints = 10;
  uint64_t seed = 1;
  // Walk order; empty selects the default (forward for WJ, anchor-first
  // for AJ).
  std::vector<int> walk_order;
  double tipping_threshold = 64.0;
  bool enable_tipping = true;
  bool adaptive_tipping = false;  // see AuditJoin::Options
};

struct TimePoint {
  double seconds = 0;
  double mae = 0;
  double mean_ci = 0;
  uint64_t walks = 0;
  uint64_t rejected = 0;
  // Cumulative engine counters at this checkpoint (zero for counters the
  // running engine does not track).
  OlaCounters counters;
};

struct OlaRunResult {
  std::vector<TimePoint> points;
  uint64_t walks = 0;
  double rejection_rate = 0;
  uint64_t duplicates = 0;  // Wander Join distinct mode only
  uint64_t tipped = 0;      // Audit Join only
  OlaCounters counters;     // final cumulative engine counters
  double final_mae = 0;
};

// One-line JSON convergence trace of a finished run: the checkpoint
// series with error, CI and the cumulative engine counters at each point.
// The benches print one such line per (query, algorithm), prefixed with
// "trace ", so runs can be scraped into time-vs-error curves.
std::string OlaTraceJson(std::string_view label, const OlaRunResult& run);

// Runs the chosen algorithm against `query` for the configured duration;
// errors are measured against `exact` (which must match query.distinct()).
// The clock includes engine construction (plan compilation, statistics).
OlaRunResult RunOla(const IndexSet& indexes, const ChainQuery& query,
                    const GroupedResult& exact, const OlaRunOptions& options);

// Default Audit Join order: start at the pattern containing alpha and
// beta, then extend outward (so the group is bound immediately and the
// remaining chain is a single segment, maximizing CTJ cache reuse).
std::vector<int> DefaultAuditOrder(const ChainQuery& query);

// The paper's per-query Wander Join order selection: try every candidate
// walk order briefly and keep the one with the lowest final error.
std::vector<int> SelectBestWalkOrder(const IndexSet& indexes,
                                     const ChainQuery& query,
                                     const GroupedResult& exact,
                                     OlaAlgo algo,
                                     double seconds_per_candidate,
                                     uint64_t seed);

// Accuracy-driven termination: runs Audit Join until the average
// confidence-interval half-width falls below `epsilon` relative to each
// group's own estimate — the "wait until the bars stabilize" interaction
// the online-aggregation UI model implies (no ground truth needed).
struct CiTerminationResult {
  std::unordered_map<TermId, double> estimates;
  double mean_relative_ci = 0;  // at termination
  double seconds = 0;
  uint64_t walks = 0;
  bool converged = false;  // false = hit max_seconds first
};

CiTerminationResult RunUntilCi(const IndexSet& indexes,
                               const ChainQuery& query, double epsilon,
                               double max_seconds,
                               const OlaRunOptions& options);

}  // namespace kgoa

#endif  // KGOA_EVAL_RUNNER_H_
