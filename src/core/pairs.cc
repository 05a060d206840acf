#include "core/pairs.h"

#include <algorithm>
#include <future>

#include "core/search.h"
#include "util/histogram.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace uots {

UotsQuery MakePairQuery(const TrajectoryDatabase& db, TrajId id,
                        const PairJoinOptions& opts) {
  const auto samples = db.store().SamplesOf(id);
  UotsQuery q;
  q.lambda = opts.lambda;
  q.k = 1;  // unused by threshold search
  const size_t m =
      std::min<size_t>(samples.size(), static_cast<size_t>(opts.max_query_locations));
  for (size_t i = 0; i < m; ++i) {
    const size_t pick = m == 1 ? 0 : i * (samples.size() - 1) / (m - 1);
    q.locations.push_back(samples[pick].vertex);
  }
  // Deduplicate while preserving order (repeated vertices add no signal).
  std::vector<VertexId> seen;
  std::vector<VertexId> unique_locs;
  for (VertexId v : q.locations) {
    if (std::find(seen.begin(), seen.end(), v) == seen.end()) {
      seen.push_back(v);
      unique_locs.push_back(v);
    }
  }
  q.locations = std::move(unique_locs);
  q.keywords = db.store().KeywordsOf(id);
  return q;
}

Result<std::vector<SimilarPair>> FindSimilarPairs(
    const TrajectoryDatabase& db, const PairJoinOptions& opts,
    LatencyHistogram* search_latency) {
  if (opts.threads < 1) return Status::InvalidArgument("threads must be >= 1");
  if (opts.lambda < 0.0 || opts.lambda > 1.0) {
    return Status::InvalidArgument("lambda must be in [0,1]");
  }
  if (opts.max_query_locations < 1 ||
      opts.max_query_locations > static_cast<int>(kMaxQueryLocations)) {
    return Status::InvalidArgument("bad max_query_locations");
  }
  const size_t n = db.store().size();
  std::vector<std::vector<ScoredTrajectory>> results(n);

  // Phase 1: per-trajectory threshold searches (parallel).
  {
    const size_t shards = std::min<size_t>(opts.threads, std::max<size_t>(n, 1));
    ThreadPool pool(shards);
    std::vector<LatencyHistogram> shard_hist(shards);
    std::vector<std::future<Status>> futures;
    for (size_t s = 0; s < shards; ++s) {
      futures.push_back(pool.Submit([&, s]() -> Status {
        UOTS_TRACE_SCOPE_ID("pairs_shard", static_cast<int64_t>(s));
        UotsSearcher searcher(db);
        const size_t begin = s * n / shards;
        const size_t end = (s + 1) * n / shards;
        for (size_t i = begin; i < end; ++i) {
          const UotsQuery q =
              MakePairQuery(db, static_cast<TrajId>(i), opts);
          auto r = searcher.SearchThreshold(q, opts.theta);
          if (!r.ok()) return r.status();
          shard_hist[s].Record(
              static_cast<int64_t>(r->stats.elapsed_ms * 1e6));
          results[i] = std::move(r->items);
          // Id-sorted for the mutual lookups in the merge phase.
          std::sort(results[i].begin(), results[i].end(),
                    [](const ScoredTrajectory& a, const ScoredTrajectory& b) {
                      return a.id < b.id;
                    });
        }
        return Status::OK();
      }));
    }
    for (auto& f : futures) {
      Status st = f.get();
      if (!st.ok()) return st;
    }
    if (search_latency != nullptr) {
      for (const auto& h : shard_hist) search_latency->Merge(h);
    }
  }

  // Phase 2: merge — keep pairs that qualified in both directions.
  std::vector<SimilarPair> pairs;
  for (TrajId a = 0; a < n; ++a) {
    for (const ScoredTrajectory& hit : results[a]) {
      const TrajId b = hit.id;
      if (b <= a) continue;  // each unordered pair once; skip self
      const auto& rb = results[b];
      const auto it = std::lower_bound(
          rb.begin(), rb.end(), a,
          [](const ScoredTrajectory& x, TrajId id) { return x.id < id; });
      if (it == rb.end() || it->id != a) continue;  // not mutual
      pairs.push_back(SimilarPair{a, b, (hit.score + it->score) / 2.0});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const SimilarPair& x, const SimilarPair& y) {
              if (x.score != y.score) return x.score > y.score;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  return pairs;
}

}  // namespace uots
