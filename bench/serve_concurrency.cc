// Serving-core concurrency: time-to-CI-width under contention and
// cancellation latency (src/ola/parallel.h).
//
// Part 1 measures interactive convergence the way the serving core
// delivers it: a chart job is submitted with a far-away deadline, its
// live Snapshot() is polled until the top group's 0.95 CI half-width
// drops below a relative target, and the job is finished (a chart served
// to its target retires as completed, not cancelled). The measured
// time-to-target is taken once for a solo job (the whole pool to itself)
// and once for 4 concurrent jobs time-slicing the same pool — the
// slowdown quantifies what fair sharing costs a single chart.
//
// Part 2 measures cancellation latency: how long after Cancel() the pool
// is free again (the core's last_cancel_latency stat — the gap between
// the cancel request and the scheduler retiring the job). The contract is
// at most one walk quantum per running slot.
//
// The machine-readable result is one `serve_trace {json}` line (scraped
// by scripts/bench_json.sh into BENCH_serve.json). Set KGOA_BENCH_QUICK=1
// for a smoke-sized run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/registry.h"
#include "src/eval/runner.h"
#include "src/explore/session.h"
#include "src/ola/parallel.h"
#include "src/util/flags.h"
#include "src/util/stopwatch.h"

namespace kgoa {
namespace {

// Single-threaded startup read, before any pool exists.
bool BenchQuick() {
  return std::getenv("KGOA_BENCH_QUICK") != nullptr;  // NOLINT(concurrency-mt-unsafe)
}

// True once the snapshot's largest group has a relative CI half-width at
// or below `target` (with enough walks for the interval to mean
// something). Tipped-to-exact groups (CI 0) satisfy any target.
bool CiTargetReached(const GroupedEstimates& estimates, double target) {
  if (estimates.walks() < 1000) return false;
  double top_estimate = 0;
  uint64_t top_group = 0;
  for (const auto& [group, estimate] : estimates.Estimates()) {
    if (estimate > top_estimate) {
      top_estimate = estimate;
      top_group = group;
    }
  }
  if (top_estimate <= 0) return false;
  return estimates.CiHalfWidth(top_group) <= target * top_estimate;
}

// Submits `jobs` identical deadline-mode jobs (distinct seeds), polls
// their live snapshots until every one reaches the CI target, finishes
// them, and returns the slowest job's time-to-target in seconds. Walks
// of the first job at its target time are returned through `walks`.
double TimeToCiTarget(ServingCore& core, const ChainQuery& query,
                      const std::vector<int>& walk_order, int jobs,
                      int workers, double target, double give_up_seconds,
                      uint64_t* walks) {
  std::vector<ChartHandle> handles;
  std::vector<double> reached(static_cast<std::size_t>(jobs), 0.0);
  Stopwatch clock;
  for (int j = 0; j < jobs; ++j) {
    ChartJobOptions options;
    options.deadline_seconds = give_up_seconds;
    options.workers = workers;
    options.seed = static_cast<uint64_t>(1 + j);
    options.walk_order = walk_order;
    handles.push_back(core.Submit(query, options));
  }
  int remaining = jobs;
  while (remaining > 0 && clock.ElapsedSeconds() < give_up_seconds) {
    for (int j = 0; j < jobs; ++j) {
      if (reached[static_cast<std::size_t>(j)] > 0) continue;
      const ParallelOlaResult snapshot = handles[static_cast<std::size_t>(j)].Snapshot();
      if (CiTargetReached(snapshot.estimates, target)) {
        reached[static_cast<std::size_t>(j)] = clock.ElapsedSeconds();
        if (j == 0 && walks != nullptr) *walks = snapshot.estimates.walks();
        --remaining;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const ChartHandle& handle : handles) handle.Finish();
  for (const ChartHandle& handle : handles) handle.Await();
  double slowest = 0;
  for (double t : reached) slowest = std::max(slowest, t);
  // A job that never reached the target counts as the give-up horizon.
  if (remaining > 0) slowest = give_up_seconds;
  return slowest;
}

}  // namespace
}  // namespace kgoa

int main(int argc, char** argv) {
  kgoa::Flags flags(argc, argv);
  flags.RestrictTo("scale,threads,ci_target,cancels");
  const bool quick = kgoa::BenchQuick();
  const double scale = flags.GetDouble("scale", quick ? 0.05 : 0.2);
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const double ci_target =
      flags.GetDouble("ci_target", quick ? 0.25 : 0.05);
  const int cancels = static_cast<int>(flags.GetInt("cancels", quick ? 3 : 8));
  const double give_up = quick ? 20.0 : 60.0;
  constexpr int kConcurrentJobs = 4;

  std::printf("=== Serving core: concurrent charts + cancellation ===\n");
  kgoa::bench::Dataset ds =
      kgoa::bench::BuildDataset(kgoa::DbpediaLikeSpec(scale));

  // Root out-property expansion: the paper's hardest interactive shape
  // (thousands of groups, distinct), same query as parallel_convergence.
  kgoa::ExplorationSession session(ds.graph);
  const kgoa::ChainQuery query =
      session.BuildQuery(kgoa::ExpansionKind::kOutProperty);
  const std::vector<int> walk_order = kgoa::DefaultAuditOrder(query);

  kgoa::ServingCore::Options core_options;
  core_options.threads = threads;
  kgoa::ServingCore core(kgoa::GraphSnapshot::Unowned(*ds.indexes),
                         core_options);

  std::printf("\n--- time to %.0f%% relative CI, %d pool threads ---\n",
              100.0 * ci_target, threads);
  uint64_t solo_walks = 0;
  const double solo_seconds = kgoa::TimeToCiTarget(
      core, query, walk_order, 1, threads, ci_target, give_up, &solo_walks);
  std::printf("solo job:          %.3fs (%llu walks)\n", solo_seconds,
              static_cast<unsigned long long>(solo_walks));
  const double concurrent_seconds = kgoa::TimeToCiTarget(
      core, query, walk_order, kConcurrentJobs, threads, ci_target, give_up,
      nullptr);
  const double slowdown =
      solo_seconds > 0 ? concurrent_seconds / solo_seconds : 0.0;
  std::printf("%d concurrent jobs: %.3fs to the slowest target (%.1fx solo)\n",
              kConcurrentJobs, concurrent_seconds, slowdown);

  std::printf("\n--- cancellation latency, %d cancels ---\n", cancels);
  double latency_sum = 0;
  double latency_max = 0;
  for (int i = 0; i < cancels; ++i) {
    kgoa::ChartJobOptions options;
    options.deadline_seconds = give_up;
    options.workers = threads;
    options.walk_order = walk_order;
    const kgoa::ChartHandle handle = core.Submit(query, options);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    handle.Cancel();
    handle.Await();
    const double latency = core.stats().last_cancel_latency_seconds;
    latency_sum += latency;
    latency_max = std::max(latency_max, latency);
  }
  const double latency_mean =
      cancels > 0 ? latency_sum / static_cast<double>(cancels) : 0.0;
  std::printf("cancel -> pool freed: mean %.3fms, max %.3fms\n",
              1e3 * latency_mean, 1e3 * latency_max);

  const kgoa::ServeStats stats = core.stats();
  std::printf("\nscheduler: %llu quanta, %llu preemptions, %llu jobs "
              "(%llu cancelled)\n",
              static_cast<unsigned long long>(stats.quanta),
              static_cast<unsigned long long>(stats.preemptions),
              static_cast<unsigned long long>(stats.jobs_submitted),
              static_cast<unsigned long long>(stats.jobs_cancelled));

  kgoa::MetricsRegistry registry;
  kgoa::ExportMetrics(stats, "serve.", &registry);
  registry.SetGauge("serve.ci_target", ci_target);
  registry.SetGauge("serve.solo_seconds_to_ci", solo_seconds);
  registry.SetGauge("serve.solo_walks_to_ci",
                    static_cast<double>(solo_walks));
  registry.SetGauge("serve.concurrent_jobs",
                    static_cast<double>(kConcurrentJobs));
  registry.SetGauge("serve.concurrent_seconds_to_ci", concurrent_seconds);
  registry.SetGauge("serve.concurrent_slowdown", slowdown);
  registry.SetGauge("serve.cancel_latency_mean_seconds", latency_mean);
  registry.SetGauge("serve.cancel_latency_max_seconds", latency_max);
  std::printf("serve_trace %s\n", registry.ToJson().c_str());
  return 0;
}
