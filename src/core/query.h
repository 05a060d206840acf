// UOTS query and result types.

#ifndef UOTS_CORE_QUERY_H_
#define UOTS_CORE_QUERY_H_

#include <vector>

#include "net/graph.h"
#include "text/keyword_set.h"
#include "traj/trajectory.h"
#include "util/counters.h"
#include "util/status.h"

namespace uots {

/// Queries may use at most this many query locations (bitmask-bounded).
inline constexpr size_t kMaxQueryLocations = 64;

/// \brief A user-oriented trajectory search query.
///
/// The traveler names the places they intend to visit (`locations`, snapped
/// to network vertices), describes their interests (`keywords`), and weights
/// the two domains with `lambda` (1 = purely spatial, 0 = purely textual).
struct UotsQuery {
  std::vector<VertexId> locations;
  KeywordSet keywords;
  double lambda = 0.5;
  int k = 1;
};

/// \brief One result trajectory with its score decomposition.
struct ScoredTrajectory {
  TrajId id = kInvalidTraj;
  double score = 0.0;        ///< SimU = lambda*spatial + (1-lambda)*textual
  double spatial_sim = 0.0;  ///< SimS in [0,1]
  double textual_sim = 0.0;  ///< SimT in [0,1]

  /// Exact equality: the id and every score bit.
  friend bool operator==(const ScoredTrajectory& a,
                         const ScoredTrajectory& b) {
    return a.id == b.id && a.score == b.score &&
           a.spatial_sim == b.spatial_sim && a.textual_sim == b.textual_sim;
  }
};

/// \brief Top-k answer plus instrumentation.
struct SearchResult {
  std::vector<ScoredTrajectory> items;  ///< descending by score
  QueryStats stats;
};

/// Validates a query against a network of `num_vertices` vertices.
Status ValidateQuery(const UotsQuery& q, size_t num_vertices);

}  // namespace uots

#endif  // UOTS_CORE_QUERY_H_
