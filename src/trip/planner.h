// TripPlanner — the stateful (per-thread) trip-assembly engine.
//
// Pipeline per query: expand keywords through the category tree (when the
// query opts in), harvest candidate segments per location over the merged
// base+delta view, assemble the k best connected trips, score with SimU.
// Answers are deterministic bit-for-bit across oracle on/off (harvest
// never touches the oracle; the oracle's connector distances are bitwise
// those of the assembler's Dijkstra fallback, DESIGN §9), result cache
// on/off (the cache stores the planner's exact output), and
// pre/post-compaction (global trajectory ids are stable across the
// base+delta -> base fold).

#ifndef UOTS_TRIP_PLANNER_H_
#define UOTS_TRIP_PLANNER_H_

#include <memory>
#include <vector>

#include "core/database.h"
#include "ingest/merged_view.h"
#include "oracle/querier.h"
#include "trip/assembler.h"
#include "trip/category_tree.h"
#include "trip/harvester.h"
#include "trip/trip_query.h"
#include "util/cancel.h"

namespace uots {

/// \brief Tuning knobs for the trip planner.
struct TripPlannerOptions {
  /// Consult the database's distance oracle (when attached) for visit
  /// ordering and connector distances. Bitwise identical either way.
  bool use_oracle = true;
};

/// \brief Per-thread trip-assembly engine over one database.
class TripPlanner {
 public:
  explicit TripPlanner(const TrajectoryDatabase& db,
                       const TripPlannerOptions& opts = {});

  /// Answers `query`; invalid queries yield an error; a fired cancel token
  /// yields kDeadlineExceeded at the next location boundary.
  Result<TripResult> Plan(const TripQuery& query);

  /// Installs (nullptr clears) the cooperative cancel/deadline token.
  void set_cancel(const CancelToken* cancel) { cancel_ = cancel; }

  /// Replaces the category hierarchy (default: the canonical synthetic
  /// tree over the database vocabulary — see CategoryTree::Synthetic).
  void set_categories(CategoryTree tree) { categories_ = std::move(tree); }
  const CategoryTree& categories() const { return categories_; }

  const char* name() const { return "TRIP"; }

 private:
  const TrajectoryDatabase* db_;
  TripPlannerOptions opts_;
  CategoryTree categories_;
  MergedView view_;
  SegmentHarvester harvester_;
  TripAssembler assembler_;
  /// Oracle queries for the assembler; null without an oracle (or with
  /// opts_.use_oracle off).
  std::unique_ptr<OracleQuerier> oracle_;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace uots

#endif  // UOTS_TRIP_PLANNER_H_
