// Shortest-path references: a full shortest-path tree and a pairwise
// distance, plus the version-tagged distance labels every Dijkstra here
// shares.
//
// The search layer's one production Dijkstra is the resumable expansion in
// net/expansion.h. The two functions below are the independent references
// the brute-force engine, the tests and the oracle benchmarks compare it
// and the CH oracle against. Both run on the CSR RoadNetwork with an
// indexed 4-ary heap (util/dary_heap.h): relaxations decrease keys in
// place, so the heap never holds stale entries and every pop settles a
// vertex.

#ifndef UOTS_NET_DIJKSTRA_H_
#define UOTS_NET_DIJKSTRA_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "net/graph.h"

namespace uots {

/// Distance value for unreachable vertices.
inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// \brief Dense distance labels with O(1) reset via version tagging.
///
/// Label and version tag live in one 16-byte slot so a probe (the hottest
/// read in every relaxation loop) touches a single cache line instead of
/// two parallel arrays.
class DistanceField {
 public:
  explicit DistanceField(size_t n = 0) { Resize(n); }

  void Resize(size_t n) {
    slots_.assign(n, Slot{0.0, 0});
    current_ = 1;
  }

  /// Invalidates all labels in O(1).
  void Reset() { ++current_; }

  double Get(VertexId v) const {
    const Slot& s = slots_[v];
    return s.version == current_ ? s.dist : kInfDistance;
  }
  void Set(VertexId v, double d) {
    slots_[v] = Slot{d, current_};
  }
  bool IsSet(VertexId v) const { return slots_[v].version == current_; }
  size_t size() const { return slots_.size(); }

  /// Hints the cache that slot `v` is about to be probed. Relaxation loops
  /// issue this for every neighbor before the first probe so the (random
  /// access, usually missing) label loads overlap instead of serializing.
  void Prefetch(VertexId v) const { __builtin_prefetch(&slots_[v]); }

 private:
  struct Slot {
    double dist;
    uint32_t version;
  };

  std::vector<Slot> slots_;
  uint32_t current_ = 1;
};

/// \brief Full single-source shortest-path distances.
struct ShortestPathTree {
  std::vector<double> dist;  ///< dist[v] = sd(source, v); inf if unreachable
};

/// Computes the complete shortest-path tree from `source`.
ShortestPathTree ComputeShortestPathTree(const RoadNetwork& g, VertexId source);

/// Network distance sd(s, t); kInfDistance if unreachable.
double ShortestPathDistance(const RoadNetwork& g, VertexId s, VertexId t);

}  // namespace uots

#endif  // UOTS_NET_DIJKSTRA_H_
