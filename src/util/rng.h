// Seedable pseudo-random number generation.
//
// We use xoshiro256** (public domain, Blackman & Vigna) rather than
// std::mt19937_64: it is ~4x faster per draw, which matters because the
// online-aggregation inner loop draws one random number per walk step and
// the paper's reported sample times are ~2.5us per full walk.
#ifndef KGOA_UTIL_RNG_H_
#define KGOA_UTIL_RNG_H_

#include <cstdint>

namespace kgoa {

// splitmix64; used to seed xoshiro from a single 64-bit value.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Seed of walk number `walk` under engine seed `engine_seed`. Walk RNG is
// counter-derived: every walk draws from a private stream seeded by
// (engine seed, walk index), so a walk's samples are a pure function of
// its index — the execution order of walks (one at a time, or batched
// level-synchronously) cannot change any walk's draws, which is what
// keeps batched estimates bit-identical to the batch=1 path. The engine
// seed is avalanched through the SplitMix64 mixer so the adjacent engine
// seeds handed out by the serving core (seed + slot) yield
// decorrelated walk-seed sequences.
inline uint64_t WalkSeed(uint64_t engine_seed, uint64_t walk) {
  uint64_t sm = engine_seed;
  return SplitMix64(sm) + walk;
}

// xoshiro256** generator. Copyable; copies evolve independently.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x8a5cd789635d2dffULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : s_) word = SplitMix64(sm);
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be > 0.
  // Lemire's nearly-divisionless method.
  uint64_t Below(uint64_t bound) {
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<uint64_t>(m);
    if (lo < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // UniformRandomBitGenerator interface (for std::shuffle etc.).
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }
  uint64_t operator()() { return Next(); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace kgoa

#endif  // KGOA_UTIL_RNG_H_
