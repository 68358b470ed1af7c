// Index storage tiers + block-max top-K chart serving.
//
// Part 1 — memory: builds the two Table I datasets and indexes each under
// both storage tiers (src/index/trie_index.h), reporting raw vs block
// resident bytes and the compression ratio. The acceptance target is a
// >= 2x reduction of the trie storage on both datasets while every
// estimate stays bit-identical across tiers (asserted by tests/
// index_test.cc and tests/mutable_test.cc; this bench records the sizes).
//
// Part 2 — serving: on the DBpedia-like graph's hardest interactive
// shape (the root out-property expansion of Figure 4, thousands of
// groups), measures time-to-displayed-chart: a top-K job that prunes
// walks bound to groups that can no longer enter the displayed top 10
// and retires itself once the displayed chart converged, against the
// same job run to full convergence of every group. The speedup is what
// the block directory + top-K bound buy an interactive frontend.
//
// The machine-readable result is one `index_trace {json}` line (scraped
// by scripts/bench_json.sh into BENCH_index.json). Set KGOA_BENCH_QUICK=1
// for a smoke-sized run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

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

// Every positive group's 0.95 CI half-width within `target` of its own
// estimate — the "all bars stabilized" stopping rule, strictly stronger
// than displayed-chart convergence.
bool FullyConverged(const GroupedEstimates& estimates, double target) {
  if (estimates.walks() < 1000) return false;
  const auto groups = estimates.Estimates();
  if (groups.empty()) return false;
  for (const auto& [group, estimate] : groups) {
    if (estimate <= 0) continue;
    if (estimates.CiHalfWidth(group) > target * estimate) return false;
  }
  return true;
}

// Polls a deadline job until FullyConverged, then finishes it; returns
// the time to full convergence (the give-up horizon when never reached).
double TimeToFullConvergence(ServingCore& core, const ChainQuery& query,
                             const std::vector<int>& walk_order,
                             double target, double give_up_seconds) {
  ChartJobOptions options;
  options.deadline_seconds = give_up_seconds;
  options.workers = 4;
  options.walk_order = walk_order;
  Stopwatch clock;
  const ChartHandle handle = core.Submit(query, options);
  double reached = 0;
  while (clock.ElapsedSeconds() < give_up_seconds) {
    if (FullyConverged(handle.Snapshot().estimates, target)) {
      reached = clock.ElapsedSeconds();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handle.Finish();
  handle.Await();
  return reached > 0 ? reached : give_up_seconds;
}

// Submits the same job in top-K mode (displayed K = 10, walk pruning on,
// self-finish on displayed convergence) and returns the time until the
// job retired itself with a converged displayed chart.
double TimeToDisplayedChart(ServingCore& core, const ChainQuery& query,
                            const std::vector<int>& walk_order, double target,
                            double give_up_seconds, uint64_t* pruned_walks) {
  ChartJobOptions options;
  options.deadline_seconds = give_up_seconds;
  options.workers = 4;
  options.walk_order = walk_order;
  options.top_k.k = 10;
  options.top_k.ci_target = target;
  options.finish_on_displayed_convergence = true;
  Stopwatch clock;
  const ParallelOlaResult result = core.Submit(query, options).Await();
  if (pruned_walks != nullptr) *pruned_walks = result.counters.pruned_walks;
  return result.displayed_converged ? clock.ElapsedSeconds()
                                    : give_up_seconds;
}

}  // namespace
}  // namespace kgoa

int main(int argc, char** argv) {
  kgoa::Flags flags(argc, argv);
  flags.RestrictTo("scale,ci_target");
  const bool quick = kgoa::BenchQuick();
  const double scale = flags.GetDouble("scale", quick ? 0.05 : 0.2);
  const double ci_target =
      flags.GetDouble("ci_target", quick ? 0.25 : 0.05);
  const double give_up = quick ? 20.0 : 60.0;

  std::printf("=== Index memory: raw vs block tier + top-K serving ===\n");
  kgoa::MetricsRegistry registry;

  // Part 1: per-dataset tier sizes.
  double ratio_min = 0;
  std::unique_ptr<kgoa::IndexSet> dbpedia_block;
  kgoa::Graph dbpedia_graph;
  for (const kgoa::KgSpec& spec :
       {kgoa::DbpediaLikeSpec(scale), kgoa::LgdLikeSpec(scale)}) {
    kgoa::Stopwatch clock;
    kgoa::Graph graph = kgoa::GenerateKg(spec);
    const double generate_seconds = clock.ElapsedSeconds();
    clock.Restart();
    const kgoa::IndexSet raw(graph);
    const double raw_seconds = clock.ElapsedSeconds();
    clock.Restart();
    auto block = std::make_unique<kgoa::IndexSet>(
        graph, kgoa::IndexSetOptions{kgoa::StorageTier::kBlock});
    const double block_seconds = clock.ElapsedSeconds();

    const uint64_t raw_bytes = raw.RawStorageBytes();
    const uint64_t block_bytes = block->BlockStorageBytes();
    const double ratio = block_bytes > 0
                             ? static_cast<double>(raw_bytes) /
                                   static_cast<double>(block_bytes)
                             : 0.0;
    if (ratio_min == 0 || ratio < ratio_min) ratio_min = ratio;
    std::printf(
        "%s: %zu triples (generated in %.1fs)\n"
        "  raw tier   %8.1f MiB, built in %.2fs\n"
        "  block tier %8.1f MiB, built in %.2fs (encode %.0f ms) "
        "-> %.2fx smaller\n",
        spec.name.c_str(), graph.NumTriples(), generate_seconds,
        static_cast<double>(raw_bytes) / (1 << 20), raw_seconds,
        static_cast<double>(block_bytes) / (1 << 20), block_seconds,
        block->build_stats().compress_ms, ratio);

    const std::string key = "index." + spec.name;
    registry.SetCounter(key + ".raw_bytes", raw_bytes);
    registry.SetCounter(key + ".block_bytes", block_bytes);
    registry.SetGauge(key + ".memory_ratio", ratio);
    registry.SetGauge(key + ".compress_ms",
                      block->build_stats().compress_ms);
    if (spec.name == "dbpedia-like") {
      dbpedia_graph = std::move(graph);
      dbpedia_block = std::move(block);
    }
  }
  registry.SetGauge("index.memory_ratio_min", ratio_min);

  // Part 2: time-to-displayed-chart on the Figure 4 root out-property
  // expansion, served from the block tier.
  kgoa::ExplorationSession session(dbpedia_graph);
  const kgoa::ChainQuery query =
      session.BuildQuery(kgoa::ExpansionKind::kOutProperty);
  const std::vector<int> walk_order = kgoa::DefaultAuditOrder(query);

  kgoa::ServingCore::Options core_options;
  core_options.threads = 4;
  double full_seconds = 0;
  double topk_seconds = 0;
  uint64_t pruned_walks = 0;
  {
    kgoa::ServingCore core(kgoa::GraphSnapshot::Unowned(*dbpedia_block),
                           core_options);
    full_seconds = kgoa::TimeToFullConvergence(core, query, walk_order,
                                               ci_target, give_up);
  }
  {
    kgoa::ServingCore core(kgoa::GraphSnapshot::Unowned(*dbpedia_block),
                           core_options);
    topk_seconds = kgoa::TimeToDisplayedChart(
        core, query, walk_order, ci_target, give_up, &pruned_walks);
  }
  const double speedup =
      topk_seconds > 0 ? full_seconds / topk_seconds : 0.0;
  std::printf(
      "top-K serving (k=10, %.0f%% CI): displayed chart in %.3fs vs "
      "%.3fs to full convergence (%.2fx, %llu walks pruned)\n",
      100.0 * ci_target, topk_seconds, full_seconds, speedup,
      static_cast<unsigned long long>(pruned_walks));
  registry.SetGauge("index.ci_target", ci_target);
  registry.SetGauge("index.full_seconds_to_converged", full_seconds);
  registry.SetGauge("index.topk_seconds_to_displayed", topk_seconds);
  registry.SetGauge("index.topk_speedup", speedup);
  registry.SetCounter("index.topk_pruned_walks", pruned_walks);

  std::printf("index_trace %s\n", registry.ToJson().c_str());
  return 0;
}
