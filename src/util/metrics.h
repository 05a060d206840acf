// Process-wide latency histograms, keyed by name.
//
// Engines and batch workers accumulate into private LatencyHistogram
// instances and merge them in one mutex-protected call at the end of a run.
// The server records one sample per request stage (server.request_latency
// on the reactor, server.queue_wait and server.execute on the workers);
// each Record() takes the registry mutex and a map lookup. The registry is
// the read side for benches, examples and the admin plane's /metrics, which
// snapshot it for p50/p95/p99 across everything recorded since the last
// Clear(). It keeps no counters: each subsystem owns its tallies, and
// /metrics, /statusz and uots_server's exit report read them there.

#ifndef UOTS_UTIL_METRICS_H_
#define UOTS_UTIL_METRICS_H_

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace uots {

/// \brief Thread-safe name -> LatencyHistogram map.
class MetricsRegistry {
 public:
  /// The process-wide instance (RunBatch merges into it by default).
  static MetricsRegistry& Global();

  /// Records one latency under `name` (creates the histogram on first use).
  void Record(const std::string& name, int64_t ns);

  /// Bucket-wise merges `h` into the histogram under `name`.
  void Merge(const std::string& name, const LatencyHistogram& h);

  /// Copy of the histogram under `name`; empty histogram when absent.
  LatencyHistogram Get(const std::string& name) const;

  /// Frozen view of the histogram under `name`, taken under the registry
  /// mutex: count, sum, quantiles, and bucket counts all describe the same
  /// recorded set even while other threads keep Record()ing. This is the
  /// scrape-side read API.
  HistogramSnapshot GetSnapshot(const std::string& name) const;

  /// Consistent frozen view of every (name, snapshot) pair, sorted by
  /// name — one lock acquisition for a whole exposition pass.
  std::vector<std::pair<std::string, HistogramSnapshot>> SnapshotAll() const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Consistent copy of every (name, histogram) pair, sorted by name.
  std::vector<std::pair<std::string, LatencyHistogram>> Snapshot() const;

  /// One "name: n=.. p50=.. ..." line per histogram.
  std::string ToString() const;

  void Clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace uots

#endif  // UOTS_UTIL_METRICS_H_
