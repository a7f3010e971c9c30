// ukarch/random.h - deterministic PRNG for workload generators.
//
// All benchmark workloads (key distributions, packet sizes, request mixes) draw
// from this generator with fixed seeds so every bench figure (bench/BENCH.md,
// "Calibration") is reproducible bit-for-bit across runs and machines.
#ifndef UKARCH_RANDOM_H_
#define UKARCH_RANDOM_H_

#include <cstdint>

namespace ukarch {

// xorshift128+ — fast, tiny state, deterministic. Not cryptographic.
class Xorshift {
 public:
  explicit constexpr Xorshift(std::uint64_t seed = 0x853c49e6748fea9bull)
      : s0_(seed ? seed : 1), s1_(seed * 0x9e3779b97f4a7c15ull + 1) {}

  constexpr std::uint64_t Next() {
    std::uint64_t x = s0_;
    std::uint64_t const y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  // Uniform in [0, bound). bound == 0 returns 0.
  constexpr std::uint64_t NextBelow(std::uint64_t bound) {
    return bound == 0 ? 0 : Next() % bound;
  }

  // Uniform in [lo, hi] inclusive.
  constexpr std::uint64_t NextInRange(std::uint64_t lo, std::uint64_t hi) {
    return lo + NextBelow(hi - lo + 1);
  }

  // Approximate Zipf-like skew: picks from [0, n) favouring low indices.
  // Used by the key-value workloads to model hot keys.
  constexpr std::uint64_t NextZipfish(std::uint64_t n) {
    if (n <= 1) {
      return 0;
    }
    std::uint64_t r = Next();
    // Three draws, take the min: cheap skew towards 0 without floating point.
    std::uint64_t a = r % n;
    std::uint64_t b = (r >> 21) % n;
    std::uint64_t c = (r >> 42) % n;
    std::uint64_t m = a < b ? a : b;
    return m < c ? m : c;
  }

 private:
  std::uint64_t s0_;
  std::uint64_t s1_;
};

}  // namespace ukarch

#endif  // UKARCH_RANDOM_H_
