// Incremental network expansion — the spatial-domain query source, and
// the one production Dijkstra over the road network.
//
// The UOTS search runs one expansion per query location and interleaves
// their progress under a scheduling heuristic; the trip harvester runs one
// per location, and the trip assembler one per connector source when no
// oracle is attached. Each expansion is a resumable Dijkstra: Step()
// settles exactly one vertex per call, in nondecreasing distance order, so
// the first time a trajectory's vertex is settled by the expansion from
// query location o, the settled distance IS d(o, tau) — no further
// refinement is ever needed. The current radius() lower-bounds the
// distance to everything not yet settled, which is what the upper-bound
// pruning in core/search.cc relies on.
//
// The frontier is an indexed 4-ary heap (util/dary_heap.h): relaxations
// decrease keys in place, so every pop settles a vertex and
// heap_pops() == settled_count() over any drain (the former lazy-deletion
// queue popped ~|E|/|V| stale entries per settle).

#ifndef UOTS_NET_EXPANSION_H_
#define UOTS_NET_EXPANSION_H_

#include <cstdint>

#include "net/dijkstra.h"
#include "net/graph.h"
#include "util/dary_heap.h"

namespace uots {

/// \brief Resumable Dijkstra expansion from a single source vertex.
class NetworkExpansion {
 public:
  /// Creates an expansion over `g`; call Reset() to (re)position the source.
  explicit NetworkExpansion(const RoadNetwork& g);

  /// (Re)starts the expansion from `source` in O(1) (version-tagged labels).
  void Reset(VertexId source);

  /// \brief Settles the next-nearest vertex.
  /// \param[out] v      the settled vertex
  /// \param[out] dist   its exact network distance from the source
  /// \return false when the whole component has been exhausted.
  bool Step(VertexId* v, double* dist);

  /// Exact distance of the last settled vertex; lower bound for all
  /// not-yet-settled vertices. 0 before the first Step().
  double radius() const { return radius_; }

  /// True once the expansion has exhausted its connected component.
  bool exhausted() const { return exhausted_; }

  VertexId source() const { return source_; }
  int64_t settled_count() const { return settled_count_; }
  /// Always equals settled_count() — kept as a separate counter so the
  /// no-stale-pops invariant stays observable (tests assert equality).
  int64_t heap_pops() const { return heap_pops_; }
  int64_t heap_pushes() const { return heap_pushes_; }
  int64_t heap_decreases() const { return heap_decreases_; }

 private:
  const RoadNetwork* g_;
  DistanceField dist_;
  VertexHeap heap_;
  VertexId source_ = kInvalidVertex;
  double radius_ = 0.0;
  bool exhausted_ = false;
  int64_t settled_count_ = 0;
  int64_t heap_pops_ = 0;
  int64_t heap_pushes_ = 0;
  int64_t heap_decreases_ = 0;
};

}  // namespace uots

#endif  // UOTS_NET_EXPANSION_H_
