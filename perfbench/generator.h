// perfbench/generator.h - seeded input generation shared by the workloads:
// a portable PRNG and the value each (key, version) pair must read back as.
//
// Values are a pure function of (seed, key, version), so the generator's
// model of the store is just the acknowledged version per key: verifying a
// GET regenerates the expected bytes and compares them.
#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace perfbench {

// SplitMix64: tiny, portable, and identical on every platform, so a seed
// names the same inputs everywhere (std:: distributions do not promise that).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n) (n > 0); the modulo bias is irrelevant at these sizes.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  // True with probability |share|.
  bool Chance(double share) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < share;
  }

 private:
  std::uint64_t state_;
};

// Fills |out| with |len| printable bytes determined by (seed, key, version).
// The first bytes spell the key and version so a misrouted value is obvious
// when debugging.
inline void FillValue(std::string* out, std::uint64_t seed, std::uint32_t key,
                      std::uint32_t version, std::size_t len) {
  out->resize(len);
  Rng rng(seed ^ ((std::uint64_t{key} << 32) | version) * 0xD6E8FEB86659FD93ull);
  char* p = out->data();
  for (std::size_t i = 0; i < len; i += 8) {
    std::uint64_t x = rng.Next();
    const std::size_t n = len - i < 8 ? len - i : 8;
    for (std::size_t j = 0; j < n; ++j) {
      p[i + j] = static_cast<char>('A' + (x & 31));
      x >>= 8;
    }
  }
  char tag[24];
  const int t = std::snprintf(tag, sizeof(tag), "%u.%u:", key, version);
  if (t > 0 && static_cast<std::size_t>(t) <= len) {
    std::memcpy(p, tag, static_cast<std::size_t>(t));
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
