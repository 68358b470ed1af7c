// Runtime SIMD dispatch for the index kernel layer (src/index/kernels.h).
//
// The kernels ship two implementations — portable scalar and AVX2 —
// compiled with per-function target attributes so the library itself
// builds without -march flags and stays runnable on any x86-64 (and,
// through the scalar fallback, on any architecture at all). The level is
// picked ONCE, at first use, from cpuid (__builtin_cpu_supports) and the
// KGOA_SIMD environment variable:
//
//   KGOA_SIMD=off | scalar   force the portable scalar path
//   KGOA_SIMD=avx2 | on      cap at AVX2 (the default cap; any other
//                            value gets it too)
//
// A requested level is always clamped to what the CPU supports, so
// setting KGOA_SIMD=avx2 on a machine without AVX2 degrades to scalar
// instead of faulting. Tests drive both paths in one process through
// SetSimdLevel (same clamping); differential suites and the block-codec
// fuzzer compare every kernel's output across levels bit for bit.
//
// This header deliberately contains no intrinsics (the kgoa_lint
// `raw-intrinsic` rule fences <immintrin.h> into src/index/kernels.cc and
// here); it is safe to include from any translation unit.
#ifndef KGOA_UTIL_SIMD_H_
#define KGOA_UTIL_SIMD_H_

namespace kgoa {

// Ordered: a higher level implies every lower level's instruction set.
// The values are exported (`simd.level`, `kernels.simd_level`) and stay
// fixed, so traces and BENCH artifacts recorded at any time compare.
enum class SimdLevel : int { kScalar = 0, kAvx2 = 2 };

// Human-readable level name ("scalar", "avx2") for metrics and bench
// output.
const char* SimdLevelName(SimdLevel level);

// The dispatch level in effect: resolved on first call from cpuid and
// KGOA_SIMD, then cached. Hot kernels read a relaxed atomic — one load,
// no fence, on every call.
SimdLevel CurrentSimdLevel();

// Highest level the CPU supports, ignoring KGOA_SIMD (for tests and the
// throughput bench to know which levels are exercisable).
SimdLevel MaxSupportedSimdLevel();

// Forces the dispatch level (clamped to MaxSupportedSimdLevel) and
// returns the level actually installed. Test/bench hook; not intended
// for concurrent use with running kernels — callers switch levels
// between, not during, kernel invocations.
SimdLevel SetSimdLevel(SimdLevel level);

}  // namespace kgoa

#endif  // KGOA_UTIL_SIMD_H_
