// Latency histogram: bucket math, percentile accuracy against a
// sorted-vector oracle, merge semantics, and cumulative bucket counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/histogram.h"
#include "util/rng.h"

namespace uots {
namespace {

// Nearest-rank percentile on the raw samples: the value at ceil(p/100 * n).
int64_t OraclePercentile(std::vector<int64_t> values, double p) {
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(values.size()));
  if (rank < 1) rank = 1;
  return values[rank - 1];
}

TEST(HistogramBuckets, SmallValuesAreExact) {
  for (int64_t v = 0; v < 2 * LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(static_cast<int>(v)), v);
  }
}

TEST(HistogramBuckets, BoundsAreConsistent) {
  // Every bucket's bounds map back to itself and tile the range.
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const int64_t lo = LatencyHistogram::BucketLowerBound(i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(lo), i) << "lower bound of " << i;
    const int64_t hi = LatencyHistogram::BucketUpperBound(i);
    if (hi != std::numeric_limits<int64_t>::max()) {
      EXPECT_EQ(LatencyHistogram::BucketIndex(hi), i) << "upper bound of " << i;
      EXPECT_EQ(LatencyHistogram::BucketLowerBound(i + 1), hi + 1);
    }
  }
  EXPECT_EQ(
      LatencyHistogram::BucketIndex(std::numeric_limits<int64_t>::max()),
      LatencyHistogram::kNumBuckets - 1);
}

TEST(Histogram, EmptyIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min_ns(), 0);
  EXPECT_EQ(h.max_ns(), 0);
  EXPECT_EQ(h.PercentileNs(50), 0);
  EXPECT_EQ(h.CumulativeCountLe(1 << 30), 0);
  EXPECT_DOUBLE_EQ(h.MeanNs(), 0.0);
}

TEST(Histogram, SingleValue) {
  LatencyHistogram h;
  h.Record(12345);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min_ns(), 12345);
  EXPECT_EQ(h.max_ns(), 12345);
  // One sample: every percentile is that sample (clamped to [min, max]).
  EXPECT_EQ(h.PercentileNs(0), 12345);
  EXPECT_EQ(h.PercentileNs(50), 12345);
  EXPECT_EQ(h.PercentileNs(100), 12345);
}

TEST(Histogram, NegativeClampsToZero) {
  LatencyHistogram h;
  h.Record(-5);
  EXPECT_EQ(h.min_ns(), 0);
  EXPECT_EQ(h.PercentileNs(50), 0);
}

TEST(Histogram, PercentilesMatchOracleWithinBucketError) {
  Rng rng(99);
  std::vector<int64_t> values;
  LatencyHistogram h;
  for (int i = 0; i < 5000; ++i) {
    // Latency-like mix: mostly ~1ms with a heavy tail up to ~1s.
    int64_t v = static_cast<int64_t>(1e6 * (0.2 + rng.UniformDouble()));
    if (rng.Bernoulli(0.05)) v *= 50;
    if (rng.Bernoulli(0.01)) v *= 500;
    values.push_back(v);
    h.Record(v);
  }
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const int64_t oracle = OraclePercentile(values, p);
    const int64_t est = h.PercentileNs(p);
    // The histogram returns the bucket upper bound: never below the true
    // percentile, at most one sub-bucket (6.25%) above it.
    EXPECT_GE(est, oracle) << "p" << p;
    EXPECT_LE(est, static_cast<int64_t>(oracle * 1.0625) + 1) << "p" << p;
  }
  EXPECT_EQ(h.PercentileNs(100), h.max_ns());
}

TEST(Histogram, MergeEqualsBulkRecord) {
  Rng rng(7);
  LatencyHistogram a, b, merged;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = static_cast<int64_t>(rng.Uniform(1 << 20));
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    merged.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), merged.count());
  EXPECT_EQ(a.sum_ns(), merged.sum_ns());
  EXPECT_EQ(a.min_ns(), merged.min_ns());
  EXPECT_EQ(a.max_ns(), merged.max_ns());
  for (double p : {25.0, 50.0, 75.0, 99.0}) {
    EXPECT_EQ(a.PercentileNs(p), merged.PercentileNs(p)) << "p" << p;
  }
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram h, empty;
  h.Record(1000);
  h.Merge(empty);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min_ns(), 1000);
  empty.Merge(h);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_EQ(empty.min_ns(), 1000);
}

TEST(Histogram, ToStringMentionsPercentiles) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 1000000LL);
  const std::string s = h.ToString();
  EXPECT_NE(s.find("n=100"), std::string::npos);
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p95="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
}

TEST(Histogram, CumulativeCountLeIsMonotoneAndBounded) {
  Rng rng(55);
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(static_cast<int64_t>(rng.Uniform(1 << 22)));
  }
  int64_t prev = -1;
  for (int64_t ns = 0; ns <= (int64_t{1} << 23); ns += 1 << 16) {
    const int64_t le = h.CumulativeCountLe(ns);
    EXPECT_GE(le, prev) << "ns=" << ns;  // monotone in ns
    EXPECT_LE(le, h.count());
    prev = le;
  }
  EXPECT_EQ(h.CumulativeCountLe(-1), 0);
  EXPECT_EQ(h.CumulativeCountLe(std::numeric_limits<int64_t>::max()),
            h.count());
}

TEST(Histogram, CumulativeCountLeNeverOvercounts) {
  // A bucket only counts toward `le` once its whole range fits below the
  // threshold, so the result can undercount by a bucket but never
  // overcount.
  LatencyHistogram h;
  h.Record(100);  // lands in the bucket spanning [100, 103]
  const int idx = LatencyHistogram::BucketIndex(100);
  const int64_t hi = LatencyHistogram::BucketUpperBound(idx);
  EXPECT_EQ(h.CumulativeCountLe(hi - 1), 0);
  EXPECT_EQ(h.CumulativeCountLe(hi), 1);
}

}  // namespace
}  // namespace uots
