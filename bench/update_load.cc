// Update load: time-to-CI and estimate error while writes land
// (src/core/mutable_graph.h, DESIGN.md §13).
//
// Three runs over the SAME generated base graph (GenerateKg is
// deterministic): a read-only baseline (0% write mix, clean base), then
// the same deadline-mode chart at 1% and 10% write mixes. Each write mix
// lands HALF its quota before the chart pins its snapshot — so the
// pinned version reads through a merged delta overlay of that size and
// every walk pays the overlay-merge cost — while a writer thread races
// the serving with the remaining half in small batches (publishing
// epochs and evicting stale caches under the chart's feet). The chart
// pins its snapshot at submit, so the estimates converge toward the
// PINNED epoch's exact counts no matter how many epochs the writer
// publishes — the bench reports the time until the top group's 0.95 CI
// half-width drops below a relative target, the mean absolute error
// against the pinned epoch's exact CTJ counts at that moment, and
// finally the cost of compacting the accumulated overlay.
//
// The machine-readable result is one `update_trace {json}` line (scraped
// by scripts/bench_json.sh into BENCH_update.json). Set
// KGOA_BENCH_QUICK=1 for a smoke-sized run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/explorer.h"
#include "src/gen/kg_gen.h"
#include "src/eval/registry.h"
#include "src/eval/runner.h"
#include "src/explore/session.h"
#include "src/join/ctj.h"
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

// Mean absolute error of `estimates` against the exact counts, averaged
// over the exact result's groups (groups the walks never sampled count
// with estimate 0). `rel_mae` gets the total absolute error over the
// total exact count — scale-free, comparable across write mixes.
double MeanAbsoluteError(const GroupedEstimates& estimates,
                         const GroupedResult& exact, double* rel_mae) {
  const auto ests = estimates.Estimates();
  double sum_abs = 0;
  double sum_exact = 0;
  for (const auto& [group, count] : exact.counts) {
    const auto it = ests.find(group);
    const double estimate = it == ests.end() ? 0.0 : it->second;
    sum_abs += std::abs(estimate - static_cast<double>(count));
    sum_exact += static_cast<double>(count);
  }
  if (rel_mae != nullptr) {
    *rel_mae = sum_exact > 0 ? sum_abs / sum_exact : 0.0;
  }
  return exact.counts.empty() ? 0.0
                              : sum_abs / static_cast<double>(exact.counts.size());
}

// Applies `quota` triple changes in small deterministic batches (two
// thirds inserts recombined over the base graph's term pools — mostly
// fresh triples, same distribution — one third deletes of base triples),
// until the quota is spent or `stop` is raised. The 1 ms pause between
// batches only applies when `paced` (the racing writer); the pre-batch
// half of the quota lands as fast as Apply allows. No interning — every
// TermId already exists, so walks racing this never touch the
// dictionary. Returns the live-set flips actually applied (inserts may
// no-op on duplicates).
uint64_t ApplyWrites(Explorer& explorer, const std::vector<Triple>& base,
                     uint64_t quota, uint64_t seed, bool paced,
                     const std::atomic<bool>& stop) {
  uint64_t applied = 0;
  if (quota == 0 || base.empty()) return applied;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, base.size() - 1);
  constexpr uint64_t kBatch = 256;
  for (uint64_t spent = 0; spent < quota && !stop.load(std::memory_order_relaxed);
       spent += kBatch) {
    const uint64_t n = std::min(kBatch, quota - spent);
    std::vector<Triple> inserts;
    std::vector<Triple> deletes;
    for (uint64_t i = 0; i < n; ++i) {
      if (i % 3 == 2) {
        deletes.push_back(base[pick(rng)]);
      } else {
        inserts.push_back(Triple{base[pick(rng)].s, base[pick(rng)].p,
                                 base[pick(rng)].o});
      }
    }
    applied += explorer.Apply(inserts, deletes);
    if (paced) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return applied;
}

}  // namespace
}  // namespace kgoa

int main(int argc, char** argv) {
  kgoa::Flags flags(argc, argv);
  flags.RestrictTo("scale,threads,ci_target");
  const bool quick = kgoa::BenchQuick();
  const double scale = flags.GetDouble("scale", quick ? 0.05 : 0.2);
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const double ci_target =
      flags.GetDouble("ci_target", quick ? 0.25 : 0.05);
  const double give_up = quick ? 20.0 : 60.0;

  struct Mix {
    const char* label;  // gauge key fragment: update.<label>_*
    double fraction;    // written triples as a share of the base size
  };
  const Mix mixes[] = {{"w0", 0.0}, {"w1", 0.01}, {"w10", 0.10}};

  std::printf("=== Update load: time-to-CI at 0%%/1%%/10%% write mix ===\n");
  kgoa::MetricsRegistry registry;
  registry.SetCounter("update.threads", static_cast<uint64_t>(threads));
  registry.SetGauge("update.ci_target", ci_target);

  double baseline_seconds = 0;
  const kgoa::KgSpec spec = kgoa::DbpediaLikeSpec(scale);
  for (const Mix& mix : mixes) {
    // A fresh explorer per mix: every run starts from the identical
    // epoch-1 base, so the ablation isolates the write load.
    kgoa::Stopwatch setup;
    kgoa::Graph graph = kgoa::GenerateKg(spec);
    const std::vector<kgoa::Triple> base = graph.triples();
    kgoa::Explorer explorer(std::move(graph));
    std::printf("[setup] %s: %zu triples (generated + indexed in %.1fs)\n",
                spec.name.c_str(), base.size(), setup.ElapsedSeconds());
    std::fflush(stdout);

    kgoa::ServingCore::Options serving;
    serving.threads = threads;
    explorer.ConfigureServing(serving);

    // Root out-property expansion: the paper's hardest interactive shape
    // (thousands of groups, distinct), same query as serve_concurrency.
    kgoa::ExplorationSession session = explorer.NewSession();
    const kgoa::ChainQuery query =
        session.BuildQuery(kgoa::ExpansionKind::kOutProperty);

    // Half the quota lands BEFORE the pin, so the served version reads
    // through an overlay proportional to the write mix; the other half
    // races the serving from a writer thread.
    const uint64_t quota = static_cast<uint64_t>(
        std::llround(mix.fraction * static_cast<double>(base.size())));
    std::atomic<bool> stop{false};
    uint64_t pre_applied = kgoa::ApplyWrites(explorer, base, quota / 2,
                                             /*seed=*/1234, /*paced=*/false,
                                             stop);

    // Pin BEFORE the racing writer starts: the chart serves exactly this
    // version, and the MAE below is measured against its exact counts
    // (evaluated on the same pinned snapshot, through the same overlay).
    const kgoa::GraphSnapshot pinned = explorer.snapshot();
    const kgoa::GroupedResult exact =
        kgoa::CtjEngine(pinned.indexes()).Evaluate(query);

    uint64_t raced_applied = 0;
    // kgoa-lint: allow(raw-thread) the racing writer IS the workload being measured
    std::thread writer([&] {
      raced_applied =
          kgoa::ApplyWrites(explorer, base, quota - quota / 2,
                            /*seed=*/5678, /*paced=*/true, stop);
    });

    kgoa::ChartJobOptions job;
    job.walk_budget = 0;  // deadline mode
    job.deadline_seconds = give_up;
    job.workers = threads;
    job.seed = 7;
    job.walk_order = kgoa::DefaultAuditOrder(query);
    job.snapshot = pinned;

    kgoa::Stopwatch clock;
    const kgoa::ChartHandle handle = explorer.SubmitChart(query, job);
    double reached = 0;
    kgoa::GroupedEstimates at_target;
    while (clock.ElapsedSeconds() < give_up) {
      kgoa::ParallelOlaResult snapshot = handle.Snapshot();
      if (kgoa::CiTargetReached(snapshot.estimates, ci_target)) {
        reached = clock.ElapsedSeconds();
        at_target = std::move(snapshot.estimates);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    handle.Finish();
    if (reached == 0) {
      reached = give_up;
      at_target = handle.Await().estimates;
    } else {
      handle.Await();
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();

    double rel_mae = 0;
    const double mae = kgoa::MeanAbsoluteError(at_target, exact, &rel_mae);
    if (mix.fraction == 0.0) baseline_seconds = reached;
    const double slowdown =
        baseline_seconds > 0 ? reached / baseline_seconds : 0.0;

    // The writer's leftovers: fold the overlay back into a clean base.
    kgoa::Stopwatch fold;
    explorer.Compact();
    const double compact_seconds = fold.ElapsedSeconds();

    std::printf(
        "%4s: %.3fs to %.0f%% CI (%llu walks, MAE %.2f, rel %.4f, "
        "%llu pre + %llu raced writes of %llu, compact %.3fs)\n",
        mix.label, reached, 100.0 * ci_target,
        static_cast<unsigned long long>(at_target.walks()), mae, rel_mae,
        static_cast<unsigned long long>(pre_applied),
        static_cast<unsigned long long>(raced_applied),
        static_cast<unsigned long long>(quota), compact_seconds);
    std::fflush(stdout);

    const std::string key = std::string("update.") + mix.label;
    registry.SetGauge(key + "_seconds_to_ci", reached);
    registry.SetGauge(key + "_walks_to_ci",
                      static_cast<double>(at_target.walks()));
    registry.SetGauge(key + "_mae", mae);
    registry.SetGauge(key + "_rel_mae", rel_mae);
    registry.SetGauge(key + "_write_triples",
                      static_cast<double>(pre_applied + raced_applied));
    registry.SetGauge(key + "_compact_seconds", compact_seconds);
    if (mix.fraction > 0.0) registry.SetGauge(key + "_slowdown", slowdown);
    if (mix.fraction == 0.10) {
      // Export the epoch/overlay counters once, from the heaviest write
      // load (the epoch.* key set validated by bench_json.sh).
      kgoa::ExportMetrics(explorer.mutable_graph(), "epoch.", &registry);
    }
  }

  std::printf("update_trace %s\n", registry.ToJson().c_str());
  return 0;
}
