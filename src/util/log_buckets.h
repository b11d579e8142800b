#ifndef LAKE_UTIL_LOG_BUCKETS_H_
#define LAKE_UTIL_LOG_BUCKETS_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace lake {

// The one log-scale bucket scheme behind every latency histogram
// (HdrHistogram-style, 2 sub-bucket bits): values 0..7 get exact buckets,
// then each power of two splits into 4 sub-buckets, so a bucket's width is
// at most 12.5% of its values.

/// Bucket of `value` in a histogram of `num_buckets` slots; larger values
/// clamp into the last one.
inline size_t LogBucketIndex(uint64_t value, size_t num_buckets) {
  if (value < 4) return static_cast<size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const size_t index =
      static_cast<size_t>(msb - 1) * 4 + ((value >> (msb - 2)) & 3);
  return std::min(index, num_buckets - 1);
}

/// Inclusive lower bound of a bucket (the next bucket's is its exclusive
/// upper bound).
inline uint64_t LogBucketLowerBound(size_t index) {
  if (index < 4) return index;
  const int msb = static_cast<int>(index / 4) + 1;
  return (4 + (index & 3)) << (msb - 2);
}

/// q-quantile of a log-bucket histogram with `count` samples whose exact
/// extremes are `min` and `max`, interpolated inside the hit bucket. The
/// edges are exact, not interpolated: an empty histogram returns 0 for
/// every q, q <= 0 returns `min`, q >= 1 (and any out-of-range q) `max`,
/// NaN is treated as 0, and interior quantiles are clamped into
/// [min, max] so interpolation never extrapolates past an observed sample.
inline double LogBucketQuantile(const uint64_t* buckets, size_t num_buckets,
                                uint64_t count, double min, double max,
                                double q) {
  if (count == 0) return 0;
  if (std::isnan(q)) q = 0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  uint64_t cum = 0;
  for (size_t i = 0; i < num_buckets; ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t next = cum + buckets[i];
    if (static_cast<double>(next) >= target) {
      const double lo = static_cast<double>(LogBucketLowerBound(i));
      const double hi = i + 1 < num_buckets
                            ? static_cast<double>(LogBucketLowerBound(i + 1))
                            : max;
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(buckets[i]);
      return std::clamp(lo + (hi - lo) * frac, min, max);
    }
    cum = next;
  }
  return max;
}

}  // namespace lake

#endif  // LAKE_UTIL_LOG_BUCKETS_H_
