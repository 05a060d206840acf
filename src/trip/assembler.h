// Trip assembly: stitch per-location candidate segments into connected
// trips over the road network.
//
// Given the harvested candidates C_i for each query location o_i, the
// assembler
//
//  1. fixes the visit order — the query order under the `ordered`
//     constraint, otherwise a deterministic nearest-neighbor tour over the
//     exact location-to-location network distances (start at o_1, always
//     hop to the nearest unvisited location, ties to the smaller index);
//  2. runs a k-best dynamic program over positions x candidates: a trip
//     picks one segment per position, consecutive picks joined by the
//     shortest-path connector exit -> entry, which must be finite and
//     within the gap budget when one is set;
//  3. scores each pick sequence with the SimU machinery — the per-position
//     contribution lambda*exp(-d(o_i, seg)/sigma) + (1-lambda)*SimT is
//     position-separable, so the DP maximizes exactly the final score —
//     and resolves ties by the lexicographically smallest (traj, begin)
//     sequence.
//
// Connector distances come from the CH oracle's querier when the database
// carries an oracle, else from a NetworkExpansion (the resumable Dijkstra
// the harvester and the UOTS searcher run) stepped until every target has
// settled. The oracle's distances are bitwise those the expansion settles
// (DESIGN §9), so answers do not depend on which path ran. When no gap
// budget constrains the DP, connectors are only computed for the k winning
// trips, and each distinct (exit, entry) pair among them only once: the
// winners share segments.

#ifndef UOTS_TRIP_ASSEMBLER_H_
#define UOTS_TRIP_ASSEMBLER_H_

#include <vector>

#include "core/model.h"
#include "net/expansion.h"
#include "oracle/querier.h"
#include "trip/harvester.h"
#include "trip/trip_query.h"

namespace uots {

/// \brief Per-engine assembly scratch (Dijkstra fallback state).
class TripAssembler {
 public:
  explicit TripAssembler(const RoadNetwork& g) : expansion_(g) {}

  /// \brief Assembles the top-k trips from `cands[i]` (candidates of
  /// locations[i]). `oracle` may be null (Dijkstra fallback; bitwise
  /// identical results). Appends nothing when any location has no
  /// candidates or no feasible stitch exists.
  void Assemble(const TripQuery& q,
                std::vector<std::vector<SegmentCandidate>> cands,
                OracleQuerier* oracle, QueryStats* stats,
                std::vector<AssembledTrip>* out);

 private:
  /// Deterministic visit order over location indices (see file comment).
  std::vector<uint32_t> VisitOrder(const TripQuery& q, OracleQuerier* oracle,
                                   QueryStats* stats);

  /// Exact sd(source, t) for every t in `targets`, into `*out`: one
  /// expansion from `source`, stopped once every target has settled.
  void FallbackDistances(VertexId source, std::span<const VertexId> targets,
                         QueryStats* stats, std::vector<double>* out);

  /// dist[s][t] = sd(sources[s], targets[t]) via oracle or fallback.
  void DistanceMatrix(std::span<const VertexId> sources,
                      std::span<const VertexId> targets, OracleQuerier* oracle,
                      QueryStats* stats,
                      std::vector<std::vector<double>>* dist);

  double PairDistance(VertexId s, VertexId t, OracleQuerier* oracle,
                      QueryStats* stats);

  NetworkExpansion expansion_;
};

}  // namespace uots

#endif  // UOTS_TRIP_ASSEMBLER_H_
