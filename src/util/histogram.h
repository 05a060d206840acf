// Log-scale latency histogram (HdrHistogram-style bucketing).
//
// Values (nanoseconds) land in buckets whose width is 1/16 of their
// magnitude: each power of two is split into 16 linear sub-buckets, so any
// recorded value is representable with <= 6.25% relative error while the
// whole int64 range fits in a fixed 960-slot array. Recording is two shifts
// and an increment, and histograms merge by bucket-wise addition. A
// histogram is not synchronized: each one has a single owning thread (a
// batch worker, or the server's loop, which records every server histogram
// and renders /metrics from it), and batch workers each fill a private one
// that the executor merges once at the end.

#ifndef UOTS_UTIL_HISTOGRAM_H_
#define UOTS_UTIL_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>

namespace uots {

/// \brief Fixed-footprint log-scale histogram of nanosecond latencies.
class LatencyHistogram {
 public:
  /// Sub-buckets per power of two; bounds the relative quantile error at
  /// 1 / kSubBuckets.
  static constexpr int kLinearBits = 4;
  static constexpr int64_t kSubBuckets = int64_t{1} << kLinearBits;
  /// Buckets 0..2*kSubBuckets-1 are exact; above that, 16 per octave up to
  /// the 63-bit value range.
  static constexpr int kNumBuckets =
      static_cast<int>((63 - kLinearBits) * kSubBuckets) + kSubBuckets;

  void Record(int64_t ns) {
    if (ns < 0) ns = 0;
    ++counts_[BucketIndex(ns)];
    ++count_;
    sum_ns_ += ns;
    min_ns_ = std::min(min_ns_, ns);
    max_ns_ = std::max(max_ns_, ns);
  }

  void Merge(const LatencyHistogram& o) {
    for (int i = 0; i < kNumBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ns_ += o.sum_ns_;
    min_ns_ = std::min(min_ns_, o.min_ns_);
    max_ns_ = std::max(max_ns_, o.max_ns_);
  }

  int64_t count() const { return count_; }
  int64_t min_ns() const { return count_ > 0 ? min_ns_ : 0; }
  int64_t max_ns() const { return count_ > 0 ? max_ns_ : 0; }
  int64_t sum_ns() const { return sum_ns_; }
  double MeanNs() const {
    return count_ > 0 ? static_cast<double>(sum_ns_) / count_ : 0.0;
  }

  /// Nearest-rank percentile, `p` in [0, 100]. Returns the upper bound of
  /// the bucket holding the p-th value, clamped into [min_ns, max_ns]; the
  /// result therefore never underestimates the true percentile and
  /// overestimates it by at most 1/kSubBuckets relatively.
  int64_t PercentileNs(double p) const;

  double PercentileMs(double p) const {
    return static_cast<double>(PercentileNs(p)) / 1e6;
  }

  /// "n=120 mean=1.84ms p50=1.71ms p95=3.62ms p99=5.10ms max=5.43ms".
  std::string ToString() const;

  /// Count in bucket `index` (0 <= index < kNumBuckets).
  int64_t BucketCount(int index) const { return counts_[index]; }

  /// Number of recorded values <= `ns`, at bucket granularity: a bucket is
  /// included iff its entire range is <= ns, so the result never
  /// overcounts and undercounts by at most one bucket's population
  /// (<= 6.25% relative boundary error). Monotone in `ns` — suitable for
  /// cumulative ("le") exposition series.
  int64_t CumulativeCountLe(int64_t ns) const;

  /// Maps `ns` (>= 0) to its bucket. Exposed for tests.
  static int BucketIndex(int64_t ns) {
    const uint64_t v = static_cast<uint64_t>(ns);
    if (v < 2 * kSubBuckets) return static_cast<int>(v);
    const int shift = std::bit_width(v) - (kLinearBits + 1);
    return static_cast<int>(((shift + 1) << kLinearBits) +
                            ((v >> shift) - kSubBuckets));
  }

  /// Smallest value mapping to `index`.
  static int64_t BucketLowerBound(int index) {
    const int64_t sub = index & (kSubBuckets - 1);
    const int block = index >> kLinearBits;
    if (block == 0) return sub;
    return (kSubBuckets + sub) << (block - 1);
  }

  /// Largest value mapping to `index`.
  static int64_t BucketUpperBound(int index) {
    if (index + 1 >= kNumBuckets) return std::numeric_limits<int64_t>::max();
    return BucketLowerBound(index + 1) - 1;
  }

 private:
  std::array<int64_t, kNumBuckets> counts_{};
  int64_t count_ = 0;
  int64_t sum_ns_ = 0;
  int64_t min_ns_ = std::numeric_limits<int64_t>::max();
  int64_t max_ns_ = 0;
};

}  // namespace uots

#endif  // UOTS_UTIL_HISTOGRAM_H_
