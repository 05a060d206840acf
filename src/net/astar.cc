#include "net/astar.h"

#include <algorithm>
#include <cassert>

namespace uots {

AStarEngine::AStarEngine(const RoadNetwork& g)
    : g_(&g),
      dist_(g.NumVertices()),
      heap_(g.NumVertices()),
      parent_(g.NumVertices(), kInvalidVertex) {}

PathResult AStarEngine::FindPath(VertexId s, VertexId t) {
  const Point goal = g_->PositionOf(t);
  return Run(
      s, t,
      [this, goal](VertexId v) {
        return EuclideanDistance(g_->PositionOf(v), goal);
      },
      /*want_path=*/true);
}

double AStarEngine::Distance(VertexId s, VertexId t) {
  const Point goal = g_->PositionOf(t);
  return Run(
             s, t,
             [this, goal](VertexId v) {
               return EuclideanDistance(g_->PositionOf(v), goal);
             },
             /*want_path=*/false)
      .distance;
}

PathResult AStarEngine::Run(VertexId s, VertexId t, const Heuristic& h,
                            bool want_path) {
  assert(s < g_->NumVertices() && t < g_->NumVertices());
  PathResult out;
  dist_.Reset();
  heap_.Reset();
  dist_.Set(s, 0.0);
  parent_[s] = kInvalidVertex;
  heap_.Push(s, h(s));
  while (!heap_.empty()) {
    // The heap key is f = g + h; the exact g of the popped vertex is its
    // distance label (kept in lockstep by every relaxation).
    const VertexId v = heap_.Pop().id;
    const double g = dist_.Get(v);
    ++out.settled;
    if (v == t) {
      out.distance = g;
      if (want_path) {
        for (VertexId u = t;; u = parent_[u]) {
          out.path.push_back(u);
          if (u == s) break;
        }
        std::reverse(out.path.begin(), out.path.end());
      }
      return out;
    }
    const auto neighbors = g_->Neighbors(v);
    for (const auto& e : neighbors) dist_.Prefetch(e.to);
    for (const auto& e : neighbors) {
      const double ng = g + e.weight;
      if (ng < dist_.Get(e.to)) {
        dist_.Set(e.to, ng);
        parent_[e.to] = v;
        // A popped vertex may re-enter here under an inconsistent
        // heuristic (PushOrDecrease re-inserts it), matching the lazy
        // re-expansion behavior this engine always had.
        heap_.PushOrDecrease(e.to, ng + h(e.to));
      }
    }
  }
  return out;  // unreachable
}

}  // namespace uots
