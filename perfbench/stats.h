// perfbench/stats.h - the benchmark's summary arithmetic: nearest-rank
// percentiles over a latency histogram, medians, and the quartile spread used
// to judge run-to-run steadiness.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// Latency samples in a fixed-size log-linear histogram: values below
// 2 * kSubBuckets are kept exactly, larger ones in buckets 1/kSubBuckets of
// their power of two wide. It stays at 58 KiB however long the run, where
// the raw samples of one 25 s resp-pipelined run take ~90 MB.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::int64_t kSubBuckets = std::int64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits) * kSubBuckets;

  void Add(std::int64_t v) {
    ++counts_[Index(std::max<std::int64_t>(v, 0))];
    ++count_;
  }
  void Clear() {
    counts_.fill(0);
    count_ = 0;
  }
  std::uint64_t count() const { return count_; }

  // Nearest-rank percentile (q in (0, 1]): the bucket holding the smallest
  // sample with at least ceil(q * n) samples at or below it, reported as the
  // bucket's midpoint (within 1/(2 * kSubBuckets) of the sample). 0 when empty.
  double Percentile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double rank = std::ceil(q * static_cast<double>(count_));
    const std::uint64_t k = rank < 1.0 ? 1 : static_cast<std::uint64_t>(rank);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= std::min(k, count_)) {
        return Midpoint(i);
      }
    }
    return 0.0;
  }

  // Samples in buckets wholly above the one holding |value|: a lower bound on
  // the samples beyond it. A percentile is only reported when at least ten
  // samples lie beyond it.
  std::uint64_t CountAbove(double value) const {
    std::uint64_t n = 0;
    for (std::size_t i = Index(static_cast<std::int64_t>(value)) + 1; i < counts_.size(); ++i) {
      n += counts_[i];
    }
    return n;
  }

  static std::size_t Index(std::int64_t v) {
    if (v < 2 * kSubBuckets) {
      return static_cast<std::size_t>(v);
    }
    const int shift = std::bit_width(static_cast<std::uint64_t>(v)) - 1 - kSubBits;
    return static_cast<std::size_t>(shift * kSubBuckets + (v >> shift));
  }
  static double Midpoint(std::size_t i) {
    const auto idx = static_cast<std::int64_t>(i);
    if (idx < 2 * kSubBuckets) {
      return static_cast<double>(idx);
    }
    const std::int64_t shift = idx / kSubBuckets - 1;
    const std::int64_t lo = (idx - shift * kSubBuckets) << shift;
    return static_cast<double>(lo) + static_cast<double>((std::int64_t{1} << shift) - 1) / 2.0;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// First, second and third quartile, computed like Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so the
// benchmark and its acceptance check agree on what "spread" means.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
inline Quartiles QuartilesOf(std::vector<double> v) {
  Quartiles q;
  if (v.size() < 2) {
    q.q1 = q.q2 = q.q3 = v.empty() ? 0.0 : v[0];
    return q;
  }
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;  // after the clamp, as Python does
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

// (q3 - q1) / median: the run-to-run spread as a share of the median.
inline double QuartileSpread(const std::vector<double>& v) {
  const Quartiles q = QuartilesOf(v);
  const double med = Median(v);
  return med != 0.0 ? (q.q3 - q.q1) / med : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
