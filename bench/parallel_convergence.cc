// Parallel online aggregation: live convergence traces and deterministic
// scaling (src/ola/parallel.h).
//
// Part 1 runs one deadline-mode job on a ServingCore on the root
// out-property expansion and prints one JSON snapshot line per sampling
// tick *while the workers are still walking* — elapsed time, walk rate,
// rejection rate, the merged engine counters (tipped / aborts / CTJ cache
// hits) and every group's running estimate with its 0.95 CI half-width.
// This is the raw data behind time-vs-error curves like Figure 8, scraped
// with `grep '^trace '`.
//
// Part 2 runs the deterministic walk-budget mode with the same budget on
// 1, 2 and 4 threads and checks the merged estimates are bit-identical —
// the serving core's guarantee (thread count affects wall-clock only).
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench/bench_common.h"
#include "src/eval/metrics.h"
#include "src/eval/registry.h"
#include "src/eval/runner.h"
#include "src/explore/session.h"
#include "src/join/ctj.h"
#include "src/ola/parallel.h"
#include "src/util/flags.h"

namespace kgoa {
namespace {

ParallelOlaResult Serve(const bench::Dataset& ds, const ChainQuery& query,
                        ChartJobOptions job, int threads) {
  ServingCore::Options options;
  options.threads = threads;
  ServingCore core(GraphSnapshot::Unowned(*ds.indexes), options);
  return core.Submit(query, std::move(job)).Await();
}

void LiveTrace(const bench::Dataset& ds, const ChainQuery& query,
               const GroupedResult& exact, double seconds, int threads) {
  std::printf("\n--- deadline mode, %d threads, %.2fs, live snapshots ---\n",
              threads, seconds);
  ChartJobOptions job;
  job.deadline_seconds = seconds;
  job.workers = threads;
  job.walk_order = DefaultAuditOrder(query);
  job.snapshot_period = seconds / 8;
  int snapshots = 0;
  job.on_snapshot = [&](const OlaSnapshot& snapshot) {
    ++snapshots;
    std::printf("trace %s\n", SnapshotJson(snapshot).c_str());
  };
  const ParallelOlaResult run = Serve(ds, query, std::move(job), threads);

  // Error of the merged final estimate against the exact result.
  double mae = 0;
  for (const auto& [group, count] : exact.counts) {
    mae += std::abs(run.estimates.Estimate(group) -
                    static_cast<double>(count)) /
           static_cast<double>(count);
  }
  if (!exact.counts.empty()) mae /= static_cast<double>(exact.counts.size());
  std::printf("%d snapshots, %llu walks (%.0f walks/s), final MAE %.2f%%\n",
              snapshots,
              static_cast<unsigned long long>(run.estimates.walks()),
              run.elapsed_seconds > 0
                  ? static_cast<double>(run.estimates.walks()) /
                        run.elapsed_seconds
                  : 0.0,
              100.0 * mae);
  std::fflush(stdout);
}

bool BitIdentical(const GroupedEstimates& a, const GroupedEstimates& b) {
  if (a.walks() != b.walks() || a.rejected_walks() != b.rejected_walks()) {
    return false;
  }
  const auto ea = a.Estimates();
  const auto eb = b.Estimates();
  if (ea.size() != eb.size()) return false;
  for (const auto& [group, estimate] : ea) {
    const auto it = eb.find(group);
    if (it == eb.end() || it->second != estimate) return false;
    if (a.CiHalfWidth(group) != b.CiHalfWidth(group)) return false;
  }
  return true;
}

void DeterministicScaling(const bench::Dataset& ds, const ChainQuery& query,
                          uint64_t budget) {
  std::printf("\n--- walk-budget mode, %llu walks, 4 logical workers ---\n",
              static_cast<unsigned long long>(budget));
  ChartJobOptions job;
  job.walk_budget = budget;
  job.workers = 4;
  job.walk_order = DefaultAuditOrder(query);

  GroupedEstimates reference;
  bool all_identical = true;
  for (int threads : {1, 2, 4}) {
    const ParallelOlaResult run = Serve(ds, query, job, threads);
    std::printf(
        "threads=%d: %.3fs, %.0f walks/s, %llu tipped, %llu cache hits\n",
        threads, run.elapsed_seconds,
        run.elapsed_seconds > 0
            ? static_cast<double>(budget) / run.elapsed_seconds
            : 0.0,
        static_cast<unsigned long long>(run.counters.tipped_walks),
        static_cast<unsigned long long>(run.counters.ctj_cache_hits));
    if (threads == 1) {
      reference = run.estimates;
    } else if (!BitIdentical(reference, run.estimates)) {
      all_identical = false;
    }
  }
  std::printf("merged estimates bit-identical across thread counts: %s\n",
              all_identical ? "yes" : "NO (BUG)");
  std::fflush(stdout);
}

}  // namespace
}  // namespace kgoa

int main(int argc, char** argv) {
  kgoa::Flags flags(argc, argv);
  flags.RestrictTo("scale,seconds,threads,budget");
  const double scale = flags.GetDouble("scale", 0.2);
  const double seconds = flags.GetDouble("seconds", 0.8);
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const uint64_t budget =
      static_cast<uint64_t>(flags.GetInt("budget", 200'000));

  std::printf("=== Parallel OLA: live snapshots + deterministic budget ===\n");
  kgoa::bench::Dataset ds =
      kgoa::bench::BuildDataset(kgoa::DbpediaLikeSpec(scale));

  // Root out-property expansion: the paper's hardest interactive query
  // shape (thousands of groups, distinct).
  kgoa::ExplorationSession session(ds.graph);
  const kgoa::ChainQuery query =
      session.BuildQuery(kgoa::ExpansionKind::kOutProperty);
  const kgoa::GroupedResult exact =
      kgoa::CtjEngine(*ds.indexes).Evaluate(query);
  std::printf("query: out-property(Thing), %zu groups\n",
              exact.counts.size());

  kgoa::LiveTrace(ds, query, exact, seconds, threads);
  kgoa::DeterministicScaling(ds, query, budget);
  return 0;
}
