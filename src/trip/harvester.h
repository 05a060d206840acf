// Candidate-segment harvest: the spatial front end of trip assembly.
//
// For each query location o_i, a resumable network expansion (the same
// engine the UOTS searcher schedules) settles vertices in nondecreasing
// distance; the first settle of a trajectory's vertex yields the exact
// d(o_i, tau) and the sample the trip passes closest to the location. A
// window of samples around that anchor becomes a candidate segment. The
// merged base+delta view supplies the postings, so live-ingested trips
// participate the moment their generation is published.
//
// Harvesting never consults the distance oracle — candidate sets (and
// therefore final answers) are identical with and without one attached;
// the oracle only accelerates the assembler's connector distances, which
// are bitwise those the same expansion would settle (DESIGN §9).

#ifndef UOTS_TRIP_HARVESTER_H_
#define UOTS_TRIP_HARVESTER_H_

#include <vector>

#include "core/model.h"
#include "ingest/merged_view.h"
#include "net/expansion.h"
#include "trip/trip_query.h"
#include "util/versioned.h"

namespace uots {

/// \brief One harvested segment: a sample window of one trajectory
/// anchored at the vertex where the expansion first touched it.
struct SegmentCandidate {
  TrajId traj = kInvalidTraj;
  uint32_t begin = 0;  ///< half-open sample range [begin, end)
  uint32_t end = 0;
  VertexId entry = kInvalidVertex;  ///< samples[begin].vertex
  VertexId exit = kInvalidVertex;   ///< samples[end-1].vertex
  double distance = 0.0;            ///< exact d(o_i, traj)
  double decay = 0.0;               ///< exp(-distance / sigma)
  double text = 0.0;                ///< SimT(expanded query, keywords(traj))
};

/// \brief Per-engine harvest scratch (expansion + dedup array).
class SegmentHarvester {
 public:
  explicit SegmentHarvester(const RoadNetwork& g)
      : expansion_(g), seen_(0) {}

  /// \brief Harvests up to `max_segments` distinct-trajectory segments for
  /// `location`, in expansion (nondecreasing-distance) order, appending to
  /// `*out`. Deterministic: settle order and posting order are both fixed.
  void Harvest(const MergedView& view, const SimilarityModel& model,
               const KeywordSet& expanded_query, VertexId location,
               int max_segments, int window, QueryStats* stats,
               std::vector<SegmentCandidate>* out);

 private:
  void EmitCandidate(const MergedView& view, const SimilarityModel& model,
                     const KeywordSet& expanded_query, TrajId traj,
                     VertexId settle_vertex, double dist, int window,
                     std::vector<SegmentCandidate>* out);

  NetworkExpansion expansion_;
  /// traj id -> already harvested for the current location (O(1) reset).
  VersionedArray<int8_t> seen_;
};

}  // namespace uots

#endif  // UOTS_TRIP_HARVESTER_H_
