#include "util/histogram.h"

#include <sstream>

namespace uots {

namespace {

std::string FormatNsAsMs(int64_t ns) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << static_cast<double>(ns) / 1e6 << "ms";
  return os.str();
}

}  // namespace

int64_t LatencyHistogram::PercentileNs(double p) const {
  if (count_ == 0) return 0;
  const double clamped = std::max(0.0, std::min(100.0, p));
  int64_t target =
      static_cast<int64_t>(clamped / 100.0 * static_cast<double>(count_));
  if (target < 1) target = 1;
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts_[i];
    if (seen >= target) {
      return std::clamp(BucketUpperBound(i), min_ns(), max_ns());
    }
  }
  return max_ns();
}

int64_t LatencyHistogram::CumulativeCountLe(int64_t ns) const {
  // Counts values in buckets that lie entirely at or below `ns`.
  if (ns < 0) return 0;
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (BucketUpperBound(i) > ns) break;
    seen += counts_[i];
  }
  return seen;
}

std::string LatencyHistogram::ToString() const {
  std::ostringstream os;
  os << "n=" << count_;
  if (count_ == 0) return os.str();
  os.precision(3);
  os << std::fixed << " mean=" << MeanNs() / 1e6 << "ms"
     << " p50=" << FormatNsAsMs(PercentileNs(50))
     << " p95=" << FormatNsAsMs(PercentileNs(95))
     << " p99=" << FormatNsAsMs(PercentileNs(99))
     << " max=" << FormatNsAsMs(max_ns_);
  return os.str();
}

}  // namespace uots
