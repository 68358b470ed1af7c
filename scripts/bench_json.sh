#!/usr/bin/env bash
# Runs the machine-readable benches and captures their trace lines as
# versioned JSON artifacts:
#
#   BENCH_reach.json  `reach_trace` from micro_sample_time — the
#                     reach-probability cache ablation.
#   BENCH_index.json  `index_trace` from index_memory — raw vs block
#                     storage-tier bytes.
#   BENCH_kernels.json `kernel_trace` from kernel_throughput — the SIMD
#                     kernel ablation: decode MB/s, in-block seeks/s and
#                     hash probes/s scalar vs vectorized, plus end-to-end
#                     time-to-CI scalar vs SIMD vs SIMD+batched walks.
#
# Concurrent serving and serving under writes have no artifact here:
# kgbench's sessions_block and write_mix workloads measure them with
# repetition and bounds (BENCHMARK.json).
#
# Usage: scripts/bench_json.sh [--quick] [reach_out.json] [index_out.json]
#                              [kernels_out.json]
#
#   --quick    Smoke-sized runs (KGOA_BENCH_QUICK=1) — what tier1.sh runs.
#   outputs    Default to BENCH_reach.json / BENCH_index.json /
#              BENCH_kernels.json in the repo root (the tracked copies).
#
# The build directory defaults to ./build; override with KGOA_BENCH_BUILD.
# Each emitted JSON has the stable key set checked at the bottom of this
# script — downstream tooling (EXPERIMENTS.md tables, regression diffs)
# may rely on those keys existing. One value is gated too: the script
# fails when index.memory_ratio_min (raw-tier over block-tier bytes, the
# lower of the two datasets' ratios) is below 2.0, the block tier's
# acceptance bar. Byte counts are deterministic, so the gate cannot flake.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
OUTS=()
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) OUTS+=("$arg") ;;
  esac
done
REACH_OUT="${OUTS[0]:-BENCH_reach.json}"
INDEX_OUT="${OUTS[1]:-BENCH_index.json}"
KERNELS_OUT="${OUTS[2]:-BENCH_kernels.json}"

BUILD="${KGOA_BENCH_BUILD:-build}"
for bin in micro_sample_time index_memory kernel_throughput; do
  if [[ ! -x "$BUILD/bench/$bin" ]]; then
    cmake --build "$BUILD" --target "$bin" -j "$(nproc)"
  fi
done

if [[ "$QUICK" == "1" ]]; then
  # Filter that matches nothing: skip the google-benchmark loops and run
  # only the hand-timed EmitReachTrace ablation.
  RAW=$(KGOA_BENCH_QUICK=1 "$BUILD/bench/micro_sample_time" \
        --benchmark_filter='^$' 2>/dev/null)
  INDEX_RAW=$(KGOA_BENCH_QUICK=1 "$BUILD/bench/index_memory" 2>/dev/null)
  KERNELS_RAW=$(KGOA_BENCH_QUICK=1 "$BUILD/bench/kernel_throughput" \
                2>/dev/null)
else
  RAW=$("$BUILD/bench/micro_sample_time" --benchmark_filter='^BM_Reach' \
        2>/dev/null)
  INDEX_RAW=$("$BUILD/bench/index_memory" 2>/dev/null)
  KERNELS_RAW=$("$BUILD/bench/kernel_throughput" 2>/dev/null)
fi

echo "$RAW" | grep '^reach_trace ' | sed 's/^reach_trace //' > "$REACH_OUT"
echo "$INDEX_RAW" | grep '^index_trace ' | sed 's/^index_trace //' \
    > "$INDEX_OUT"
echo "$KERNELS_RAW" | grep '^kernel_trace ' | sed 's/^kernel_trace //' \
    > "$KERNELS_OUT"

python3 - "$REACH_OUT" "$INDEX_OUT" "$KERNELS_OUT" <<'EOF'
import json
import sys

def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)

def require(path, trace, counters, gauges):
    missing = sorted(counters - trace.get("counters", {}).keys())
    missing += sorted(gauges - trace.get("gauges", {}).keys())
    if missing:
        sys.exit(f"bench_json.sh: {path} is missing stable keys: {missing}")

reach_path, index_path, kernels_path = sys.argv[1:4]

reach = load(reach_path)
require(reach_path, reach, {
    "reach.pairs", "reach.threads", "reach.hits", "reach.misses",
    "reach.contention", "reach.entries", "reach.memory_bytes",
}, {
    "reach.cold_ns", "reach.warm_shared_ns", "reach.warm_refmap_ns",
    "reach.warm_shared_mt_ns", "reach.seed_path_ns", "reach.shared_path_ns",
    "reach.speedup_shared_vs_seed", "reach.speedup_warm_vs_seed",
    "reach.speedup_warm_vs_refmap",
})
print(f"bench_json.sh: wrote {reach_path} "
      f"(warm_shared={reach['gauges']['reach.warm_shared_ns']:.1f} ns/op, "
      f"speedup_warm_vs_seed="
      f"{reach['gauges']['reach.speedup_warm_vs_seed']:.2f}x)")

index = load(index_path)
require(index_path, index, {
    "index.dbpedia-like.raw_bytes", "index.dbpedia-like.block_bytes",
    "index.lgd-like.raw_bytes", "index.lgd-like.block_bytes",
}, {
    "index.dbpedia-like.memory_ratio", "index.dbpedia-like.compress_ms",
    "index.lgd-like.memory_ratio", "index.lgd-like.compress_ms",
    "index.memory_ratio_min",
})
MIN_MEMORY_RATIO = 2.0
memory_ratio = index["gauges"]["index.memory_ratio_min"]
if memory_ratio < MIN_MEMORY_RATIO:
    sys.exit(f"bench_json.sh: {index_path}: index.memory_ratio_min "
             f"{memory_ratio:.2f} is below {MIN_MEMORY_RATIO}")
print(f"bench_json.sh: wrote {index_path} "
      f"(block tier {memory_ratio:.2f}x smaller)")

# Host-portable key set: scalar-vs-best rather than per-level keys, so the
# same keys validate on machines without AVX2 (where "simd" is scalar and
# the speedups sit near 1.0).
kernels = load(kernels_path)
require(kernels_path, kernels, {
    "kernels.simd_level", "kernels.probe_prefetch_depth",
    "kernels.default_batch_walks",
}, {
    "kernels.decode_mbps.scalar", "kernels.decode_mbps.simd",
    "kernels.decode_speedup", "kernels.seeks_per_sec.scalar",
    "kernels.seeks_per_sec.simd", "kernels.seek_speedup",
    "kernels.probes_per_sec.serial", "kernels.probes_per_sec.batched",
    "kernels.probe_speedup", "kernels.e2e_seconds.scalar",
    "kernels.e2e_seconds.simd", "kernels.e2e_seconds.simd_batched",
    "kernels.e2e_walks_per_sec.simd_batched", "kernels.e2e_speedup",
})
print(f"bench_json.sh: wrote {kernels_path} "
      f"(decode {kernels['gauges']['kernels.decode_speedup']:.2f}x, "
      f"in-block seek {kernels['gauges']['kernels.seek_speedup']:.2f}x, "
      f"end-to-end {kernels['gauges']['kernels.e2e_speedup']:.2f}x "
      f"time-to-CI)")
EOF
