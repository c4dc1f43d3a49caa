// Log-bucketed latency histogram core: one bucket layout at two resolutions.
//
// BasicHistogram<kSubBucketBits> splits every power of two into
// 2^kSubBucketBits linear sub-buckets, in the spirit of HdrHistogram (used by
// wrk2, the load generator in the paper's Sec. 7.4 evaluation). Exact
// minimum, maximum, count, sum and Welford moments are tracked on the side,
// so Min()/Max()/Mean()/StdDev() are exact; only Percentile() reads buckets.
//
//   Histogram     = BasicHistogram<7>: 128 sub-buckets per octave (~1.6%
//                   worst-case relative quantile error); experiment output.
//   Log2Histogram = BasicHistogram<0>: bucket i holds the values of bit
//                   width i, i.e. [2^(i-1), 2^i - 1] (bucket 0 holds zero);
//                   the metrics and telemetry layout. obs::LatencyHistogram
//                   is its lock-free atomic counterpart for shared recorders.
#ifndef SRC_STATS_HISTOGRAM_H_
#define SRC_STATS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/common/time.h"

namespace tableau {

template <int kSubBucketBits>
class BasicHistogram {
 public:
  static_assert(kSubBucketBits >= 0 && kSubBucketBits < 16);
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  // Octave 0 holds [0, kSubBuckets), one value per bucket; octave o >= 1
  // holds the values of bit width o + kSubBucketBits in its upper
  // kSubBuckets / 2 sub-buckets. Values never exceed INT64_MAX (bit width 63).
  static constexpr int kBuckets = (64 - kSubBucketBits) * kSubBuckets;

  // Bucket of a value in [0, INT64_MAX].
  static constexpr int BucketIndex(std::uint64_t value) {
    const int octave =
        std::max(0, static_cast<int>(std::bit_width(value)) - kSubBucketBits);
    // The sub-bucket is the value's top kSubBucketBits bits (all of it in
    // octave 0). Two shifts keep each below 64, and with zero sub-bucket bits
    // the mask leaves the index at exactly bit_width(value).
    const std::uint64_t top = octave == 0 ? value : (value >> (octave - 1)) >> 1;
    return octave * kSubBuckets + static_cast<int>(top & (kSubBuckets - 1));
  }

  // Inclusive upper edge of bucket `index` (the largest value it holds).
  static constexpr std::uint64_t BucketUpperEdge(int index) {
    const int octave = index / kSubBuckets;
    const auto sub = static_cast<std::uint64_t>(index % kSubBuckets);
    // Bucket (octave, sub) covers [sub << octave, ((sub + 1) << octave) - 1].
    return octave == 0 ? sub : ((sub + 1) << octave) - 1;
  }

  // Records one sample. Negative samples are clamped to zero.
  void Record(TimeNs value) {
    const TimeNs v = std::max<TimeNs>(value, 0);
    buckets_[static_cast<std::size_t>(BucketIndex(static_cast<std::uint64_t>(v)))]++;
    count_++;
    sum_ += static_cast<std::uint64_t>(v);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    const double d = static_cast<double>(v);
    const double delta = d - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (d - mean_);
  }

  // Merges another histogram into this one.
  void Merge(const BasicHistogram& other);

  std::uint64_t Count() const { return count_; }
  // Exact sum of the recorded (clamped) samples, modulo 2^64.
  std::uint64_t Sum() const { return sum_; }
  TimeNs Min() const { return count_ == 0 ? 0 : min_; }
  TimeNs Max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const {
    return count_ == 0 ? 0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  // Exact sample variance/stddev (n - 1 denominator), tracked on the side
  // with Welford's update — not derived from the lossy buckets. 0 with fewer
  // than two samples.
  double Variance() const {
    return count_ < 2 ? 0 : m2_ / static_cast<double>(count_ - 1);
  }
  double StdDev() const { return std::sqrt(Variance()); }

  // Returns the value at quantile q in [0, 1]: the upper edge of the bucket
  // holding the ceiling-rank sample, capped at the exact maximum.
  // Percentile(1.0) returns the exact maximum; 0 for an empty histogram.
  TimeNs Percentile(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }

  void Reset() { *this = BasicHistogram(); }

 private:
  std::array<std::uint64_t, kBuckets> buckets_ = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  TimeNs min_ = kTimeNever;
  TimeNs max_ = 0;
  // Welford state: running mean and sum of squared deviations from it.
  double mean_ = 0;
  double m2_ = 0;
};

using Histogram = BasicHistogram<7>;
using Log2Histogram = BasicHistogram<0>;

extern template class BasicHistogram<7>;
extern template class BasicHistogram<0>;

}  // namespace tableau

#endif  // SRC_STATS_HISTOGRAM_H_
