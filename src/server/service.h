// Query execution service: admission control + thread-pool dispatch.
//
// The service is the bridge between the single-threaded reactor and the
// compute pool. Admission is a hard bound on in-flight requests (queued +
// executing): once full, TryExecute refuses immediately and the server
// answers "overloaded" — a saturating burst costs attackers a rejection
// frame each, never unbounded queue memory or latency collapse for the
// requests already admitted. Engines and trip planners (which hold
// per-thread scratch state) are pooled per query kind and variant, and
// re-armed with the request's CancelToken before every run, so a fired
// deadline aborts the engine at its next round boundary instead of holding
// a worker hostage. Retrieval and trips share one worker body, one cache
// probe and one pool, written once over the kind traits in request_kind.h.

#ifndef UOTS_SERVER_SERVICE_H_
#define UOTS_SERVER_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "core/algorithm.h"
#include "core/database.h"
#include "server/request_kind.h"
#include "util/cancel.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace uots {

/// \brief Tuning for UotsService.
struct ServiceOptions {
  /// Worker threads; 0 = hardware concurrency.
  int threads = 0;
  /// Hard bound on in-flight requests (queued + executing). Admission
  /// beyond this returns "overloaded".
  size_t max_inflight = 256;
  /// Deadline applied to requests that do not carry one; 0 disables.
  double default_deadline_ms = 0.0;
  /// Result-cache entry budget; 0 disables the result cache entirely.
  size_t cache_max_entries = 0;
  /// Result-cache entry TTL in milliseconds; 0 = never expires.
  double cache_ttl_ms = 0.0;
  /// Result-cache shard count (rounded to a power of two).
  size_t cache_shards = 8;
  /// Engine knobs shared by every pooled UOTS engine.
  UotsSearchOptions uots;
};

/// \brief Per-request observability context riding along with TryExecute.
struct ExecuteOptions {
  /// Correlation id attached to the worker's "server_execute" trace span
  /// (as the span's numeric id, via a stable string hash). -1 = none.
  int64_t span_id = -1;
  /// Capture the span tree of this request's execution (worker-thread
  /// scope) into ExecutionResult::spans. Used by runtime trace sampling;
  /// empty in UOTS_TRACE=OFF builds.
  bool capture_spans = false;
};

/// \brief Outcome of one executed request of query kind `Kind` (see
/// server/request_kind.h), delivered to the completion callback on a worker
/// thread.
template <typename Kind>
struct BasicExecutionResult {
  Status status;                 ///< engine status (OK, kDeadlineExceeded, ...)
  typename Kind::Output result;  ///< valid when status.ok()
  double queue_wait_ms = 0.0;    ///< admission -> worker pickup
  double execute_ms = 0.0;       ///< engine wall time
  /// The request's span tree when ExecuteOptions::capture_spans was set
  /// (names are static strings; safe to keep past the request).
  std::vector<TraceEvent> spans;
};

/// Outcome of one retrieval query.
using ExecutionResult = BasicExecutionResult<RetrievalKind>;

/// \brief Thread-pool-backed query executor with bounded admission.
///
/// TryExecute may be called from any thread; completions run on pool
/// workers (wrap them with EventLoop::Post to get back to a reactor).
class UotsService {
 public:
  /// Owning form: the service shares the database's lifetime, which is
  /// what live compaction needs (SwapDatabase retires the old base only
  /// after the last in-flight request drops its reference).
  UotsService(std::shared_ptr<const TrajectoryDatabase> db,
              const ServiceOptions& opts);
  /// Non-owning convenience for embedders/tests whose database outlives
  /// the service. Such a service still serves ingests, but SwapDatabase
  /// must not retire the caller's object (it only re-points the service).
  UotsService(const TrajectoryDatabase& db, const ServiceOptions& opts)
      : UotsService(std::shared_ptr<const TrajectoryDatabase>(
                        std::shared_ptr<const void>(), &db),
                    opts) {}
  ~UotsService();

  UotsService(const UotsService&) = delete;
  UotsService& operator=(const UotsService&) = delete;

  /// Admits and dispatches one request of query kind `Kind`, answered by
  /// the pooled engine `variant`. `cancel` (may be nullptr) must stay valid
  /// until `done` runs; `done` is invoked exactly once on a worker thread
  /// when admission succeeds. \return false when the service is at
  /// capacity or shutting down — `done` is NOT invoked in that case.
  /// A non-empty `cache_key` (from CacheLookup's miss path) makes a
  /// successful result populate the result cache on the worker thread.
  template <typename Kind>
  bool TryExecute(const typename Kind::Query& query,
                  typename Kind::Variant variant, const CancelToken* cancel,
                  std::function<void(BasicExecutionResult<Kind>)> done,
                  std::string cache_key = {},
                  const ExecuteOptions& exec_opts = {});

  /// TryExecute for a retrieval query run by engine `kind`.
  bool TryExecute(const UotsQuery& query, AlgorithmKind kind,
                  const CancelToken* cancel,
                  std::function<void(ExecutionResult)> done,
                  std::string cache_key = {},
                  const ExecuteOptions& exec_opts = {}) {
    return TryExecute<RetrievalKind>(query, kind, cancel, std::move(done),
                                     std::move(cache_key), exec_opts);
  }

  /// \brief Result-cache probe, cheap enough for the reactor thread.
  ///
  /// Returns the cached answer on a hit. On a miss, `key_out` receives the
  /// canonical key to pass to TryExecute so the computed result gets
  /// cached; with caching disabled (or for bypassed requests — don't call)
  /// `key_out` is cleared and the return is null. Keys carry the kind's
  /// schema byte, so kinds never collide.
  template <typename Kind>
  std::shared_ptr<const CachedResult> CacheLookup(
      const typename Kind::Query& query, typename Kind::Variant variant,
      std::string* key_out);

  /// CacheLookup for a retrieval query run by engine `kind`.
  std::shared_ptr<const CachedResult> CacheLookup(const UotsQuery& query,
                                                  AlgorithmKind kind,
                                                  std::string* key_out) {
    return CacheLookup<RetrievalKind>(query, kind, key_out);
  }

  /// The result cache, or null when ServiceOptions disabled it.
  ResultCache* result_cache() { return result_cache_.get(); }

  /// Lifetime sums of QueryStats::oracle_lookups and
  /// QueryStats::oracle_pruned_candidates over every computed request.
  int64_t oracle_lookups() const {
    return oracle_lookups_total_.load(std::memory_order_relaxed);
  }
  int64_t oracle_pruned_candidates() const {
    return oracle_pruned_total_.load(std::memory_order_relaxed);
  }

  /// Requests currently admitted (queued + executing).
  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Stops admission; queued work still completes (their callbacks run).
  void BeginShutdown();
  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_relaxed);
  }

  /// Blocks until every admitted request has completed.
  void Drain();

  const ServiceOptions& options() const { return opts_; }
  size_t num_threads() const { return pool_->num_threads(); }

  /// Current database (pin for the duration of one use).
  std::shared_ptr<const TrajectoryDatabase> db() const {
    std::lock_guard<std::mutex> lock(db_mu_);
    return db_;
  }

  /// \brief Points the service at a compacted replacement database.
  ///
  /// Safe while requests are executing: in-flight work pins the old
  /// database via the snapshot it took at admission; the idle engine pool
  /// (whose engines hold raw pointers into the old base) is flushed, and
  /// engines released later are discarded by version tag. Call
  /// ResultCache-side invalidation separately (the compactor does).
  void SwapDatabase(std::shared_ptr<const TrajectoryDatabase> db);

  /// Monotonic count of SwapDatabase calls (engine-pool version tag).
  uint64_t db_version() const {
    return db_version_.load(std::memory_order_acquire);
  }

  /// Idle pooled retrieval engines of `kind` (bounded by the worker count).
  size_t pooled_engines(AlgorithmKind kind) const;
  /// Idle pooled retrieval engines across all algorithm kinds.
  size_t pooled_engines() const;

 private:
  /// A pooled engine of query kind `Kind`; created lazily, one per
  /// concurrently-running request of its variant (bounded by the worker
  /// count). Engines hold raw pointers into one database build, so every
  /// entry is tagged with the SwapDatabase version it was built against and
  /// dies with it.
  template <typename Kind>
  struct PooledEngine {
    typename Kind::Variant variant;
    uint64_t db_version;
    std::unique_ptr<typename Kind::Engine> engine;
  };
  template <typename Kind>
  using EngineList = std::vector<PooledEngine<Kind>>;

  /// One admission's pinned view of the database.
  struct DbSnapshot {
    std::shared_ptr<const TrajectoryDatabase> db;
    uint64_t version;
  };
  DbSnapshot SnapshotDb() const;

  template <typename Kind>
  std::unique_ptr<typename Kind::Engine> AcquireEngine(
      typename Kind::Variant variant, const DbSnapshot& snap);
  template <typename Kind>
  void ReleaseEngine(typename Kind::Variant variant, uint64_t db_version,
                     std::unique_ptr<typename Kind::Engine> engine);

  mutable std::mutex db_mu_;
  std::shared_ptr<const TrajectoryDatabase> db_;
  std::atomic<uint64_t> db_version_{0};
  ServiceOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ResultCache> result_cache_;

  /// The idle-engine pool: one version-tagged free list per query kind.
  mutable std::mutex engines_mu_;
  std::tuple<EngineList<RetrievalKind>, EngineList<TripKind>> free_engines_;

  std::atomic<size_t> inflight_{0};
  std::atomic<bool> shutting_down_{false};

  /// Lifetime totals of the per-query oracle counters, accumulated on
  /// worker threads.
  std::atomic<int64_t> oracle_lookups_total_{0};
  std::atomic<int64_t> oracle_pruned_total_{0};

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace uots

#endif  // UOTS_SERVER_SERVICE_H_
