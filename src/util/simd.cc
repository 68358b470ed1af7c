#include "src/util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace kgoa {

namespace {

SimdLevel DetectCpuLevel() {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports reads cpuid once per process under the hood.
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel EnvCap() {
  const char* env = std::getenv("KGOA_SIMD");
  if (env == nullptr) return SimdLevel::kAvx2;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
      std::strcmp(env, "0") == 0) {
    return SimdLevel::kScalar;
  }
  // "avx2", "on", or anything unrecognized: the default (full) cap —
  // an unknown value must not silently disable the fast path.
  return SimdLevel::kAvx2;
}

SimdLevel Clamp(SimdLevel level) {
  const SimdLevel max = MaxSupportedSimdLevel();
  return static_cast<int>(level) > static_cast<int>(max) ? max : level;
}

// Resolved dispatch level; -1 until first use. Relaxed is enough: the
// value is write-once from a pure computation (or an explicit test
// override), and kernels re-reading a stale level still run a correct
// implementation.
std::atomic<int> g_level{-1};

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel MaxSupportedSimdLevel() {
  static const SimdLevel detected = DetectCpuLevel();
  return detected;
}

SimdLevel CurrentSimdLevel() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(Clamp(EnvCap()));
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

SimdLevel SetSimdLevel(SimdLevel level) {
  const SimdLevel installed = Clamp(level);
  g_level.store(static_cast<int>(installed), std::memory_order_relaxed);
  return installed;
}

}  // namespace kgoa
