// Differential tests of the one histogram bucket core (src/stats/histogram.h)
// against the two layouts it replaced, kept here as references: the log2
// layout of the metrics registry and telemetry (bucket = bit width, upper
// edge 2^i - 1) with its single-writer sparse export, and the 7-sub-bucket-
// bit HDR layout of the experiment Histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "src/obs/metrics.h"
#include "src/stats/histogram.h"

namespace tableau {
namespace {

constexpr std::uint64_t kMaxValue = std::numeric_limits<std::int64_t>::max();

// --- Reference layouts ---

int RefLog2Index(std::uint64_t value) { return std::bit_width(value); }

std::int64_t RefLog2UpperEdge(int index) {
  if (index == 0) {
    return 0;
  }
  if (index == 63) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return (std::int64_t{1} << index) - 1;
}

int RefHdr7Index(std::uint64_t value) {
  constexpr int kSubBucketBits = 7;
  constexpr int kSubBuckets = 1 << kSubBucketBits;
  if (value < kSubBuckets) {
    return static_cast<int>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const int octave = msb - kSubBucketBits + 1;
  return octave * kSubBuckets + static_cast<int>(value >> octave);
}

std::uint64_t RefHdr7UpperEdge(int index) {
  constexpr int kSubBuckets = 128;
  const int octave = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (octave == 0) {
    return static_cast<std::uint64_t>(sub);
  }
  return ((static_cast<std::uint64_t>(sub) + 1) << octave) - 1;
}

// The single-writer log2 histogram the telemetry used, with its export.
class RefLog2Histogram {
 public:
  void Record(TimeNs value) {
    const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
    buckets_[std::bit_width(v)] += 1;
    count_ += 1;
    sum_ += static_cast<std::int64_t>(v);
    min_ = std::min(min_, static_cast<std::int64_t>(v));
    max_ = std::max(max_, static_cast<std::int64_t>(v));
  }

  obs::HistogramValue ToValue() const {
    obs::HistogramValue value;
    value.count = count_;
    value.sum = sum_;
    value.min = count_ == 0 ? 0 : min_;
    value.max = count_ == 0 ? 0 : max_;
    for (int i = 0; i < 64; ++i) {
      if (buckets_[i] > 0) {
        value.buckets.emplace_back(i, buckets_[i]);
      }
    }
    return value;
  }

 private:
  std::uint64_t buckets_[64] = {};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = 0;
};

// 0, 1, 2^k - 1, 2^k, 2^k + 1 for every k, INT64_MAX, and fuzzed values of
// every bit width.
std::vector<std::uint64_t> Probes() {
  std::vector<std::uint64_t> probes = {0, 1, kMaxValue};
  for (int k = 1; k < 63; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    probes.insert(probes.end(), {p - 1, p, p + 1});
  }
  std::mt19937_64 rng(20181);
  for (int i = 0; i < 20000; ++i) {
    const int width = static_cast<int>(rng() % 64);  // 0..63 bits.
    probes.push_back(width == 0 ? 0 : rng() >> (64 - width));
  }
  return probes;
}

TEST(HistogramLayout, Log2MatchesBitWidthLayout) {
  EXPECT_EQ(Log2Histogram::kBuckets, 64);
  for (const std::uint64_t v : Probes()) {
    ASSERT_EQ(Log2Histogram::BucketIndex(v), RefLog2Index(v)) << v;
  }
  for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(static_cast<std::int64_t>(Log2Histogram::BucketUpperEdge(i)),
              RefLog2UpperEdge(i))
        << i;
  }
}

TEST(HistogramLayout, SevenBitMatchesHdrLayout) {
  EXPECT_EQ(Histogram::kBuckets, 57 * 128);
  for (const std::uint64_t v : Probes()) {
    ASSERT_EQ(Histogram::BucketIndex(v), RefHdr7Index(v)) << v;
  }
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    ASSERT_EQ(Histogram::BucketUpperEdge(i), RefHdr7UpperEdge(i)) << i;
  }
  EXPECT_EQ(Histogram::BucketIndex(kMaxValue), Histogram::kBuckets - 1);
}

template <typename H>
void ExpectValuesInTheirBuckets() {
  for (const std::uint64_t v : Probes()) {
    const int index = H::BucketIndex(v);
    ASSERT_GE(index, 0) << v;
    ASSERT_LT(index, H::kBuckets) << v;
    EXPECT_LE(v, H::BucketUpperEdge(index)) << v;
    if (index > 0) {
      EXPECT_GT(v, H::BucketUpperEdge(index - 1)) << v;
    }
  }
}

TEST(HistogramLayout, EveryValueLiesInItsBucket) {
  ExpectValuesInTheirBuckets<Log2Histogram>();
  ExpectValuesInTheirBuckets<Histogram>();
}

TEST(HistogramLayout, Log2ExportMatchesSingleWriterReference) {
  Log2Histogram core;
  RefLog2Histogram ref;
  EXPECT_EQ(obs::ToHistogramValue(core), ref.ToValue());  // Empty.

  // Samples of up to 40 bits keep the reference's signed sum from overflowing.
  std::mt19937_64 rng(7);
  const TimeNs fixed[] = {-5, 0, 1, 2, 3, 1023, 1024, 1025};
  for (const TimeNs v : fixed) {
    core.Record(v);
    ref.Record(v);
  }
  for (int i = 0; i < 10000; ++i) {
    const int width = static_cast<int>(rng() % 41);
    const auto v = static_cast<TimeNs>(width == 0 ? 0 : rng() >> (64 - width));
    core.Record(v);
    ref.Record(v);
  }
  EXPECT_EQ(obs::ToHistogramValue(core), ref.ToValue());

  Log2Histogram top;
  RefLog2Histogram ref_top;
  top.Record(std::numeric_limits<TimeNs>::max());
  ref_top.Record(std::numeric_limits<TimeNs>::max());
  EXPECT_EQ(obs::ToHistogramValue(top), ref_top.ToValue());
}

}  // namespace
}  // namespace tableau
