// Similar-pair discovery (self join) — the trajectory near-duplicate
// detection / data-cleaning application from the paper's introduction.
//
// Divide and conquer in the style of this paper family's joins: each
// trajectory tau issues a threshold UOTS query built from its own samples
// and keywords; the per-trajectory candidate sets are then merged, keeping
// mutually-similar pairs. The per-trajectory searches are independent and
// run on the batch thread pool.
//
// Pair semantics: query q(tau) uses up to `max_query_locations` evenly
// spaced samples of tau as query locations and tau's keywords, so
// SimU(q(tau), tau') measures how well tau' serves a traveler wanting to
// retrace tau. The pair score is the average of the two directions, and a
// pair qualifies only when BOTH directions reach theta ("mutually
// similar") — this keeps the score symmetric and the join safe against
// one-sided matches.

#ifndef UOTS_CORE_PAIRS_H_
#define UOTS_CORE_PAIRS_H_

#include <vector>

#include "core/database.h"
#include "core/query.h"
#include "util/histogram.h"

namespace uots {

/// \brief Options of the similar-pairs self join.
struct PairJoinOptions {
  /// Both directions must score at least theta.
  double theta = 0.8;
  /// Spatial/textual preference of the pair metric.
  double lambda = 0.5;
  /// Sample points of a trajectory used as its query locations.
  int max_query_locations = 8;
  /// Worker threads for the per-trajectory searches.
  int threads = 1;
};

/// \brief One qualifying pair; a < b, score = mean of both directions.
struct SimilarPair {
  TrajId a = kInvalidTraj;
  TrajId b = kInvalidTraj;
  double score = 0.0;
};

/// Builds the threshold query a trajectory issues for the self join.
UotsQuery MakePairQuery(const TrajectoryDatabase& db, TrajId id,
                        const PairJoinOptions& opts);

/// \brief Finds all mutually-similar trajectory pairs; descending score.
/// When `search_latency` is non-null, the join records one sample per
/// per-trajectory threshold search into it (merged from the workers).
Result<std::vector<SimilarPair>> FindSimilarPairs(
    const TrajectoryDatabase& db, const PairJoinOptions& opts,
    LatencyHistogram* search_latency = nullptr);

}  // namespace uots

#endif  // UOTS_CORE_PAIRS_H_
