#include "core/batch.h"

#include <string>

#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace uots {

Result<SearchResult> RunQuery(const TrajectoryDatabase& db,
                              const UotsQuery& query,
                              const QueryOptions& opts) {
  auto engine = CreateAlgorithm(db, opts.algorithm, opts.uots);
  CancelToken token;
  if (opts.deadline_ms > 0.0) {
    token.SetDeadlineAfterMs(opts.deadline_ms);
    engine->set_cancel(&token);
  }
  return engine->Search(query);
}

BatchResult RunBatchDetailed(const TrajectoryDatabase& db,
                             const std::vector<UotsQuery>& queries,
                             const BatchOptions& opts) {
  BatchResult out;
  if (opts.threads < 1) {
    out.status = Status::InvalidArgument("threads must be >= 1");
    return out;
  }
  out.answers.resize(queries.size());
  if (queries.empty()) return out;

  const size_t shards =
      std::min<size_t>(static_cast<size_t>(opts.threads), queries.size());
  out.shards.resize(shards);
  std::vector<LatencyHistogram> shard_hist(shards);

  // One token shared by every shard: a real query failure Cancel()s it, a
  // batch deadline arms it. Either way sibling shards observe ShouldAbort()
  // at their next query boundary (and, inside a long query, the engine's
  // own round-boundary poll) instead of running the batch to completion.
  CancelToken token;
  if (opts.deadline_ms > 0.0) token.SetDeadlineAfterMs(opts.deadline_ms);

  // Distinguishes "stopped because a sibling failed" from "stopped because
  // the batch deadline expired": Cancel() is only ever called on a real
  // failure, so cancelled() is a precise witness.
  const auto abort_status = [&token] {
    return token.cancelled()
               ? Status::Cancelled("aborted: a sibling shard failed")
               : Status::DeadlineExceeded("batch deadline exceeded");
  };

  WallTimer timer;
  {
    ThreadPool pool(shards);
    std::vector<std::future<void>> futures;
    futures.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      futures.push_back(pool.Submit([&, s] {
        UOTS_TRACE_SCOPE_ID("batch_shard", static_cast<int64_t>(s));
        ShardStats& shard = out.shards[s];
        shard.shard = static_cast<int>(s);
        shard.begin = s * queries.size() / shards;
        shard.end = (s + 1) * queries.size() / shards;
        WallTimer shard_timer;
        auto engine = CreateAlgorithm(db, opts.algorithm, opts.uots);
        engine->set_cancel(&token);
        for (size_t i = shard.begin; i < shard.end; ++i) {
          if (token.ShouldAbort()) {
            shard.status = abort_status();
            break;
          }
          Result<SearchResult> r = engine->Search(queries[i]);
          if (!r.ok()) {
            if (r.status().code() == StatusCode::kDeadlineExceeded) {
              // The shared token fired mid-query; attribute it precisely
              // rather than blaming queries[i].
              shard.status = abort_status();
            } else {
              // Report which query failed; shard-local indices are opaque
              // to the caller, workload indices are not. Stop the siblings:
              // their remaining work is wasted once the batch has failed.
              shard.status = Status(r.status().code(),
                                    "query " + std::to_string(i) + ": " +
                                        r.status().message());
              token.Cancel();
            }
            break;
          }
          shard_hist[s].Record(
              static_cast<int64_t>(r->stats.elapsed_ms * 1e6));
          shard.stats += r->stats;
          out.answers[i] = std::move(r->items);
          ++shard.completed;
        }
        shard.wall_seconds = shard_timer.ElapsedSeconds();
      }));
    }
    for (auto& f : futures) f.get();
  }
  out.wall_seconds = timer.ElapsedSeconds();

  // Merge EVERY shard's completed work — including shards that failed or
  // aborted partway. Dropping a failing shard's latencies would silently
  // skew the histogram toward the healthy shards.
  for (size_t s = 0; s < shards; ++s) {
    out.completed += out.shards[s].completed;
    out.total += out.shards[s].stats;
    out.latency.Merge(shard_hist[s]);
  }

  // Overall status: the first real error wins (kCancelled shards are
  // collateral, kDeadlineExceeded is reported batch-wide with counts).
  bool deadline_hit = false;
  for (const ShardStats& shard : out.shards) {
    if (shard.status.ok()) continue;
    if (shard.status.code() == StatusCode::kCancelled) continue;
    if (shard.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_hit = true;
      continue;
    }
    out.status = shard.status;
    return out;
  }
  if (deadline_hit) {
    out.status = Status::DeadlineExceeded(
        "batch deadline exceeded after " + std::to_string(out.completed) +
        " of " + std::to_string(queries.size()) + " queries");
  }
  return out;
}

Result<BatchResult> RunBatch(const TrajectoryDatabase& db,
                             const std::vector<UotsQuery>& queries,
                             const BatchOptions& opts) {
  BatchResult out = RunBatchDetailed(db, queries, opts);
  if (!out.status.ok()) return out.status;
  return out;
}

}  // namespace uots
