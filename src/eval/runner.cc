#include "src/eval/runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "src/core/audit.h"
#include "src/eval/metrics.h"
#include "src/ola/walk_plan.h"
#include "src/ola/wander.h"
#include "src/util/contract.h"
#include "src/util/stopwatch.h"

namespace kgoa {

std::vector<int> DefaultAuditOrder(const ChainQuery& query) {
  const int anchor = query.alpha_beta_pattern();
  std::vector<int> order{anchor};
  for (int i = anchor - 1; i >= 0; --i) order.push_back(i);
  for (int i = anchor + 1; i < query.NumPatterns(); ++i) order.push_back(i);
  return order;
}

OlaRunResult RunOla(const IndexSet& indexes, const ChainQuery& query,
                    const GroupedResult& exact,
                    const OlaRunOptions& options) {
  OlaRunResult result;
  Stopwatch clock;

  std::unique_ptr<WanderJoin> wander;
  std::unique_ptr<AuditJoin> audit;
  if (options.algo == OlaAlgo::kWander) {
    WanderJoin::Options wj;
    wj.seed = options.seed;
    wj.walk_order = options.walk_order;
    wander = std::make_unique<WanderJoin>(indexes, query, wj);
  } else {
    AuditJoin::Options aj;
    aj.seed = options.seed;
    aj.walk_order = options.walk_order.empty() ? DefaultAuditOrder(query)
                                               : options.walk_order;
    aj.tipping_threshold = options.tipping_threshold;
    aj.enable_tipping = options.enable_tipping;
    aj.adaptive_tipping = options.adaptive_tipping;
    audit = std::make_unique<AuditJoin>(indexes, query, aj);
  }
  auto estimates = [&]() -> const GroupedEstimates& {
    return wander ? wander->estimates() : audit->estimates();
  };
  auto run_batch = [&](uint64_t n) {
    if (wander) {
      wander->RunWalks(n);
    } else {
      audit->RunWalks(n);
    }
  };
  auto counters = [&]() {
    if (audit) return audit->counters();
    OlaCounters c;
    c.full_walks =
        wander->estimates().walks() - wander->estimates().rejected_walks();
    c.duplicate_walks = wander->duplicate_walks();
    return c;
  };

  KGOA_CHECK(options.checkpoints >= 1);
  const double interval =
      options.duration_seconds / static_cast<double>(options.checkpoints);
  for (int cp = 1; cp <= options.checkpoints; ++cp) {
    const double deadline = interval * cp;
    while (clock.ElapsedSeconds() < deadline) {
      run_batch(64);
    }
    TimePoint point;
    point.seconds = clock.ElapsedSeconds();
    point.mae = MeanAbsoluteError(exact, estimates());
    point.mean_ci = MeanRelativeCi(exact, estimates());
    point.walks = estimates().walks();
    point.rejected = estimates().rejected_walks();
    point.counters = counters();
    result.points.push_back(point);
  }

  result.walks = estimates().walks();
  result.rejection_rate = estimates().RejectionRate();
  result.final_mae = result.points.back().mae;
  result.counters = counters();
  if (wander) result.duplicates = wander->duplicate_walks();
  if (audit) result.tipped = audit->tipped_walks();
  return result;
}

std::string OlaTraceJson(std::string_view label, const OlaRunResult& run) {
  std::string out = "{\"label\":\"";
  for (char c : label) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\",\"points\":[";
  char buffer[448];
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    const TimePoint& p = run.points[i];
    std::snprintf(
        buffer, sizeof(buffer),
        "%s{\"t\":%.4f,\"mae\":%.6g,\"mean_ci\":%.6g,\"walks\":%" PRIu64
        ",\"rejected\":%" PRIu64 ",\"tipped\":%" PRIu64
        ",\"tip_aborts\":%" PRIu64 ",\"ctj_cache_hits\":%" PRIu64
        ",\"full\":%" PRIu64 ",\"duplicates\":%" PRIu64
        ",\"reach_hits\":%" PRIu64 ",\"reach_misses\":%" PRIu64 "}",
        i == 0 ? "" : ",", p.seconds, p.mae, p.mean_ci, p.walks, p.rejected,
        p.counters.tipped_walks, p.counters.tip_aborts,
        p.counters.ctj_cache_hits, p.counters.full_walks,
        p.counters.duplicate_walks, p.counters.reach_hits,
        p.counters.reach_misses);
    out += buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "],\"walks\":%" PRIu64 ",\"rejection_rate\":%.6g}", run.walks,
                run.rejection_rate);
  out += buffer;
  return out;
}

CiTerminationResult RunUntilCi(const IndexSet& indexes,
                               const ChainQuery& query, double epsilon,
                               double max_seconds,
                               const OlaRunOptions& options) {
  CiTerminationResult result;
  Stopwatch clock;

  AuditJoin::Options aj;
  aj.seed = options.seed;
  aj.walk_order = options.walk_order.empty() ? DefaultAuditOrder(query)
                                             : options.walk_order;
  aj.tipping_threshold = options.tipping_threshold;
  aj.enable_tipping = options.enable_tipping;
  aj.adaptive_tipping = options.adaptive_tipping;
  AuditJoin audit(indexes, query, aj);

  while (clock.ElapsedSeconds() < max_seconds) {
    audit.RunWalks(512);
    // Mean CI half-width relative to each group's own estimate.
    const auto estimates = audit.estimates().Estimates();
    if (estimates.empty()) continue;
    double sum = 0;
    for (const auto& [group, estimate] : estimates) {
      sum += audit.estimates().CiHalfWidth(group) /
             std::max(estimate, 1.0);
    }
    result.mean_relative_ci = sum / static_cast<double>(estimates.size());
    if (result.mean_relative_ci <= epsilon) {
      result.converged = true;
      break;
    }
  }
  result.estimates = audit.estimates().Estimates();
  result.seconds = clock.ElapsedSeconds();
  result.walks = audit.estimates().walks();
  return result;
}

std::vector<int> SelectBestWalkOrder(const IndexSet& indexes,
                                     const ChainQuery& query,
                                     const GroupedResult& exact,
                                     OlaAlgo algo,
                                     double seconds_per_candidate,
                                     uint64_t seed) {
  std::vector<int> best;
  double best_mae = -1;
  for (const auto& candidate : CandidateWalkOrders(query.NumPatterns())) {
    OlaRunOptions options;
    options.algo = algo;
    options.duration_seconds = seconds_per_candidate;
    options.checkpoints = 1;
    options.seed = seed;
    options.walk_order = candidate;
    const OlaRunResult run = RunOla(indexes, query, exact, options);
    if (best_mae < 0 || run.final_mae < best_mae) {
      best_mae = run.final_mae;
      best = candidate;
    }
  }
  return best;
}

}  // namespace kgoa
