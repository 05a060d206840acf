#include "net/dijkstra.h"

#include <cassert>

#include "util/dary_heap.h"

namespace uots {

ShortestPathTree ComputeShortestPathTree(const RoadNetwork& g, VertexId source) {
  const size_t n = g.NumVertices();
  assert(source < n);
  ShortestPathTree out;
  out.dist.assign(n, kInfDistance);
  VertexHeap heap(n);
  out.dist[source] = 0.0;
  heap.Push(source, 0.0);
  while (!heap.empty()) {
    const auto [d, v] = heap.Pop();
    const auto neighbors = g.Neighbors(v);
    for (const auto& e : neighbors) __builtin_prefetch(&out.dist[e.to]);
    for (const auto& e : neighbors) {
      const double nd = d + e.weight;
      const double old = out.dist[e.to];
      if (nd < old) {
        out.dist[e.to] = nd;
        // Finite improvable label => e.to is queued (settled labels are
        // final under nonnegative weights); infinite => first visit.
        if (old == kInfDistance) {
          heap.Push(e.to, nd);
        } else {
          heap.DecreaseKey(e.to, nd);
        }
      }
    }
  }
  return out;
}

double ShortestPathDistance(const RoadNetwork& g, VertexId s, VertexId t) {
  assert(s < g.NumVertices() && t < g.NumVertices());
  if (s == t) return 0.0;
  DistanceField dist(g.NumVertices());
  VertexHeap heap(g.NumVertices());
  dist.Set(s, 0.0);
  heap.Push(s, 0.0);
  while (!heap.empty()) {
    const auto [d, v] = heap.Pop();
    if (v == t) return d;
    const auto neighbors = g.Neighbors(v);
    for (const auto& e : neighbors) dist.Prefetch(e.to);
    for (const auto& e : neighbors) {
      const double old = dist.Get(e.to);
      const double nd = d + e.weight;
      if (nd < old) {
        dist.Set(e.to, nd);
        if (old == kInfDistance) {
          heap.Push(e.to, nd);
        } else {
          heap.DecreaseKey(e.to, nd);
        }
      }
    }
  }
  return kInfDistance;
}

}  // namespace uots
