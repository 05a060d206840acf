// Parallel batch execution of query workloads.
//
// UOTS per-query searches are independent; a trip-recommendation service
// parallelizes across queries. The executor shards a workload over a
// thread pool, one engine instance per worker (engines hold scratch state
// and are not thread-safe; the database is const-shared).

#ifndef UOTS_CORE_BATCH_H_
#define UOTS_CORE_BATCH_H_

#include <cstddef>
#include <vector>

#include "core/algorithm.h"
#include "util/histogram.h"

namespace uots {

/// \brief Batch execution configuration.
struct BatchOptions {
  AlgorithmKind algorithm = AlgorithmKind::kUots;
  UotsSearchOptions uots;
  int threads = 1;
  /// Relative deadline for the whole batch in milliseconds; <= 0 disables
  /// it. All shards share one CancelToken armed with this deadline: when it
  /// expires, every shard stops at its engine's next round boundary and the
  /// batch returns kDeadlineExceeded reporting how many queries completed.
  double deadline_ms = 0.0;
};

/// \brief Configuration for a single RunQuery call.
struct QueryOptions {
  AlgorithmKind algorithm = AlgorithmKind::kUots;
  UotsSearchOptions uots;
  /// Relative deadline in milliseconds; <= 0 disables it. A query past its
  /// deadline aborts at the engine's next round boundary with
  /// kDeadlineExceeded (UOTS and BF poll; see SearchAlgorithm::set_cancel).
  double deadline_ms = 0.0;
};

/// Runs one query, constructing a fresh engine for the call. This is the
/// convenience entry point for services and tools; a server that answers
/// many queries should cache one engine per worker and install its own
/// CancelToken instead (engines hold reusable scratch state).
Result<SearchResult> RunQuery(const TrajectoryDatabase& db,
                              const UotsQuery& query,
                              const QueryOptions& opts = {});

/// \brief Per-worker breakdown of a batch run.
struct ShardStats {
  /// Shard index, dense in [0, shards).
  int shard = 0;
  /// Half-open query range [begin, end) ASSIGNED to this shard. On an
  /// aborted run the shard may have executed fewer — `completed` is the
  /// count actually finished (always from `begin`, in order).
  size_t begin = 0;
  size_t end = 0;
  /// Queries this shard actually completed (== end - begin when OK).
  size_t completed = 0;
  /// Why the shard stopped: OK (range done), the query's own error,
  /// kCancelled (a sibling shard failed first), or kDeadlineExceeded.
  Status status;
  /// Summed counters for the shard's completed queries.
  QueryStats stats;
  /// Wall time of this shard's loop alone.
  double wall_seconds = 0.0;
};

/// \brief Aggregate outcome of a batch run.
struct BatchResult {
  /// Overall outcome. OK when every query completed; otherwise the first
  /// real per-query error (by shard index, with the workload index in the
  /// message), or kDeadlineExceeded reporting how many queries completed.
  /// Never kCancelled — that only appears on sibling shards' ShardStats.
  Status status;
  /// Per-query answers, in workload order. On a failed run, entries for
  /// queries that never executed are empty; completed ones are kept.
  std::vector<std::vector<ScoredTrajectory>> answers;
  /// Queries that actually completed (sum of ShardStats::completed).
  size_t completed = 0;
  /// Summed per-query counters over completed queries.
  QueryStats total;
  /// Per-worker breakdown, indexed by shard.
  std::vector<ShardStats> shards;
  /// Per-query latency distribution (one sample per completed query —
  /// including queries from shards that later failed or aborted).
  LatencyHistogram latency;
  /// End-to-end wall time of the batch (max over workers, not sum).
  double wall_seconds = 0.0;

  double QueriesPerSecond() const {
    return wall_seconds > 0.0 ? answers.size() / wall_seconds : 0.0;
  }
};

/// \brief Runs `queries` against `db`, returning the full breakdown even on
/// failure.
///
/// A real query failure (invalid query, engine error) cancels the shared
/// token: sibling shards stop at their next query boundary with a
/// kCancelled shard status, distinct from the failing shard's own error.
/// With BatchOptions::deadline_ms set, expiry stops all shards with
/// kDeadlineExceeded instead. Either way every completed query's latency
/// and stats are merged into the result (BatchResult::latency and total)
/// — partial work is reported, not dropped.
BatchResult RunBatchDetailed(const TrajectoryDatabase& db,
                             const std::vector<UotsQuery>& queries,
                             const BatchOptions& opts);

/// Runs `queries` against `db`; fails on the first invalid query. The
/// failing query's workload index is prepended to the error message.
/// Thin wrapper over RunBatchDetailed that turns a non-OK
/// BatchResult::status into an error Result.
Result<BatchResult> RunBatch(const TrajectoryDatabase& db,
                             const std::vector<UotsQuery>& queries,
                             const BatchOptions& opts);

}  // namespace uots

#endif  // UOTS_CORE_BATCH_H_
