#include "src/stats/histogram.h"

#include <cmath>

#include "src/common/check.h"

namespace tableau {

template <int kSubBucketBits>
void BasicHistogram<kSubBucketBits>::Merge(const BasicHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  // Chan et al.'s pairwise combination of the Welford states: exact for the
  // concatenated sample stream.
  if (other.count_ > 0) {
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * nb / (na + nb);
    m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

template <int kSubBucketBits>
TimeNs BasicHistogram<kSubBucketBits>::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  TABLEAU_CHECK(q >= 0.0 && q <= 1.0);
  if (q >= 1.0) {
    return max_;
  }
  // Ceiling-rank semantics: the q-quantile is the smallest sample whose
  // cumulative frequency reaches q. Flooring instead under-reports the tail
  // for small counts (p99.9 of 100 samples would return the 99th sample, not
  // the maximum).
  const std::uint64_t target = std::min<std::uint64_t>(
      count_, std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(
                         std::ceil(q * static_cast<double>(count_)))));
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[static_cast<std::size_t>(i)];
    if (cumulative >= target) {
      return std::min(static_cast<TimeNs>(BucketUpperEdge(i)), max_);
    }
  }
  return max_;
}

template class BasicHistogram<7>;
template class BasicHistogram<0>;

}  // namespace tableau
