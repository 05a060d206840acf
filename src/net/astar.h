// A* point-to-point shortest paths with pluggable admissible heuristics.
//
// Used by the trip generator (many point-to-point route computations) and by
// the substrate micro-benchmarks. Edge weights in generated networks are the
// Euclidean lengths of their segments, so straight-line distance is an
// admissible and consistent heuristic. (Serving-time point-to-point
// distances come from the CH oracle, src/oracle.)

#ifndef UOTS_NET_ASTAR_H_
#define UOTS_NET_ASTAR_H_

#include <functional>
#include <vector>

#include "net/dijkstra.h"
#include "net/graph.h"
#include "util/dary_heap.h"

namespace uots {

/// Lower bound on sd(v, t) for a fixed target t. Must never overestimate.
using Heuristic = std::function<double(VertexId v)>;

/// \brief Result of a point-to-point search.
struct PathResult {
  double distance = kInfDistance;
  std::vector<VertexId> path;  ///< s..t inclusive; empty if unreachable
  int64_t settled = 0;         ///< vertices settled (search effort)
};

/// \brief Reusable A* engine for one graph.
class AStarEngine {
 public:
  explicit AStarEngine(const RoadNetwork& g);

  /// Shortest path with the Euclidean heuristic.
  PathResult FindPath(VertexId s, VertexId t);

  /// Distance only (skips path extraction).
  double Distance(VertexId s, VertexId t);

 private:
  PathResult Run(VertexId s, VertexId t, const Heuristic& h, bool want_path);

  const RoadNetwork* g_;
  DistanceField dist_;
  VertexHeap heap_;  ///< keyed by f = g + h; g lives in dist_
  std::vector<VertexId> parent_;
};

}  // namespace uots

#endif  // UOTS_NET_ASTAR_H_
