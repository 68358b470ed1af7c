// Index storage tiers: builds the two Table I datasets and indexes each
// under both storage tiers (src/index/trie_index.h), reporting raw vs
// block resident bytes and the compression ratio. The acceptance target
// is a >= 2x reduction of the trie storage on both datasets while every
// estimate stays bit-identical across tiers (asserted by tests/
// index_test.cc and tests/mutable_test.cc; this bench records the sizes).
//
// The machine-readable result is one `index_trace {json}` line (scraped
// by scripts/bench_json.sh into BENCH_index.json). Set KGOA_BENCH_QUICK=1
// for a smoke-sized run.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "src/eval/registry.h"
#include "src/util/flags.h"
#include "src/util/stopwatch.h"

namespace kgoa {
namespace {

// Single-threaded startup read, before any pool exists.
bool BenchQuick() {
  return std::getenv("KGOA_BENCH_QUICK") != nullptr;  // NOLINT(concurrency-mt-unsafe)
}

}  // namespace
}  // namespace kgoa

int main(int argc, char** argv) {
  kgoa::Flags flags(argc, argv);
  flags.RestrictTo("scale");
  const double scale =
      flags.GetDouble("scale", kgoa::BenchQuick() ? 0.05 : 0.2);

  std::printf("=== Index memory: raw vs block tier ===\n");
  kgoa::MetricsRegistry registry;

  double ratio_min = 0;
  for (const kgoa::KgSpec& spec :
       {kgoa::DbpediaLikeSpec(scale), kgoa::LgdLikeSpec(scale)}) {
    kgoa::Stopwatch clock;
    const kgoa::Graph graph = kgoa::GenerateKg(spec);
    const double generate_seconds = clock.ElapsedSeconds();
    clock.Restart();
    const kgoa::IndexSet raw(graph);
    const double raw_seconds = clock.ElapsedSeconds();
    clock.Restart();
    const kgoa::IndexSet block(
        graph, kgoa::IndexSetOptions{kgoa::StorageTier::kBlock});
    const double block_seconds = clock.ElapsedSeconds();

    const uint64_t raw_bytes = raw.RawStorageBytes();
    const uint64_t block_bytes = block.BlockStorageBytes();
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
        block.build_stats().compress_ms, ratio);

    const std::string key = "index." + spec.name;
    registry.SetCounter(key + ".raw_bytes", raw_bytes);
    registry.SetCounter(key + ".block_bytes", block_bytes);
    registry.SetGauge(key + ".memory_ratio", ratio);
    registry.SetGauge(key + ".compress_ms",
                      block.build_stats().compress_ms);
  }
  registry.SetGauge("index.memory_ratio_min", ratio_min);

  std::printf("index_trace %s\n", registry.ToJson().c_str());
  return 0;
}
