#!/usr/bin/env bash
# Tier-1 verification. Stages, all fatal:
#
#  1. build + full ctest suite (warnings are errors: KGOA_WERROR=ON),
#     then build the standalone benchmark package (kgbench/, which
#     compiles against the library's serving API) and run its metric
#     tests
#  2. scripts/lint.sh — -Werror rebuild, repo lint rules (incl. the
#     raw-mutex / naked-memory-order / cv-wait-predicate concurrency
#     rules and stale-suppression detection), clang-tidy, and the clang
#     -Wthread-safety stage with its negative-compile harness (the two
#     clang stages skip with a notice when clang is absent)
#  3. parallel_test + serve_test + reach_concurrent_test + sync_test +
#     mutable_test under ThreadSanitizer (the serving-core scheduler, the
#     snapshot-publishing path, the shared lock-striped reach cache, the
#     annotated sync wrappers and the RCU epoch-publish / journal-replay
#     compaction races are the repo's multi-threaded code; the parallel
#     index build rides along)
#  4. the ENTIRE ctest suite under AddressSanitizer and UBSan (UBSan
#     aborts on its first report, so undefined behaviour fails the test)
#  5. the entire suite again with -DKGOA_CONTRACTS=ON, so every
#     KGOA_DCHECK contract (sortedness, cursor monotonicity, memo
#     poisoning, probability ranges, probe-chain bounds) and libstdc++'s
#     container bounds checks (_GLIBCXX_ASSERTIONS) run in an
#     otherwise-release build
#  6. all four fuzz harnesses (-DKGOA_FUZZ=ON) replay their corpus and
#     fuzz for KGOA_FUZZ_SECONDS (default 60) each (overlay_fuzz is the
#     snapshot-epoch differential: overlay view vs from-scratch rebuild)
#  7. the entire ctest suite once more with KGOA_SIMD=off, so the
#     scalar kernels (the only dispatch level on hosts without AVX2, and
#     the reference of every differential test) get the same coverage as
#     the AVX2 default
#  8. bench smoke: scripts/bench_json.sh --quick must emit all three
#     BENCH JSONs with their stable key sets and a block-tier memory
#     ratio of at least 2.0 (written to a temp dir so the checked-in
#     full-mode BENCH_reach.json / BENCH_index.json / BENCH_kernels.json
#     are not clobbered with quick-mode numbers)
#
# Usage: scripts/tier1.sh   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
FUZZ_SECONDS="${KGOA_FUZZ_SECONDS:-60}"

echo "=== tier-1: build + ctest ==="
cmake -B build -S . -DKGOA_WERROR=ON
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"
cmake -S kgbench -B build-kgbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-kgbench -j "${JOBS}"
./build-kgbench/kgbench_metrics_test

echo
echo "=== tier-1: static analysis (scripts/lint.sh) ==="
scripts/lint.sh build-lint

echo
echo "=== tier-1: concurrency tests under ThreadSanitizer ==="
cmake -B build-tsan -S . -DKGOA_SANITIZE=thread -DKGOA_WERROR=ON
cmake --build build-tsan -j "${JOBS}" --target parallel_test \
      --target serve_test --target reach_concurrent_test \
      --target sync_test --target mutable_test
./build-tsan/tests/parallel_test
./build-tsan/tests/serve_test
./build-tsan/tests/reach_concurrent_test
./build-tsan/tests/sync_test
./build-tsan/tests/mutable_test

for san in address undefined; do
  echo
  echo "=== tier-1: full suite under ${san} sanitizer ==="
  cmake -B "build-${san}" -S . -DKGOA_SANITIZE="${san}" -DKGOA_WERROR=ON
  cmake --build "build-${san}" -j "${JOBS}"
  ctest --test-dir "build-${san}" --output-on-failure -j "${JOBS}"
done

echo
echo "=== tier-1: full suite with KGOA_CONTRACTS=ON ==="
cmake -B build-contracts -S . -DKGOA_CONTRACTS=ON -DKGOA_WERROR=ON \
      -DKGOA_FUZZ=ON
cmake --build build-contracts -j "${JOBS}"
ctest --test-dir build-contracts --output-on-failure -j "${JOBS}"

echo
echo "=== tier-1: fuzz harnesses (${FUZZ_SECONDS}s each) ==="
./build-contracts/fuzz/ntriples_fuzz fuzz/corpus/ntriples \
    "-max_total_time=${FUZZ_SECONDS}"
./build-contracts/fuzz/join_fuzz fuzz/corpus/join \
    "-max_total_time=${FUZZ_SECONDS}"
./build-contracts/fuzz/block_codec_fuzz fuzz/corpus/block_codec \
    "-max_total_time=${FUZZ_SECONDS}"
./build-contracts/fuzz/overlay_fuzz fuzz/corpus/overlay \
    "-max_total_time=${FUZZ_SECONDS}"

echo
echo "=== tier-1: full suite with KGOA_SIMD=off (scalar fallback) ==="
KGOA_SIMD=off ctest --test-dir build --output-on-failure -j "${JOBS}"

echo
echo "=== tier-1: bench smoke (scripts/bench_json.sh) ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
scripts/bench_json.sh --quick "${SMOKE_DIR}/BENCH_reach.json" \
    "${SMOKE_DIR}/BENCH_index.json" "${SMOKE_DIR}/BENCH_kernels.json"

echo
echo "tier-1 OK"
