#include "trip/planner.h"

#include "util/timer.h"

namespace uots {

TripPlanner::TripPlanner(const TrajectoryDatabase& db,
                         const TripPlannerOptions& opts)
    : db_(&db),
      opts_(opts),
      categories_(CategoryTree::Synthetic(db.vocabulary())),
      harvester_(db.network()),
      assembler_(db.network()) {
  if (opts_.use_oracle && db.oracle() != nullptr) {
    oracle_ = std::make_unique<OracleQuerier>(*db.oracle());
  }
}

Result<TripResult> TripPlanner::Plan(const TripQuery& query) {
  UOTS_RETURN_NOT_OK(ValidateTripQuery(query, db_->network().NumVertices()));

  WallTimer timer;
  TripResult result;
  view_.Bind(*db_);

  KeywordSet matched = query.keywords;
  {
    ScopedPhase phase(&result.stats, QueryPhase::kTextualFilter);
    if (query.use_categories) matched = categories_.ExpandQuery(matched);
  }

  std::vector<std::vector<SegmentCandidate>> cands(query.locations.size());
  {
    ScopedPhase phase(&result.stats, QueryPhase::kTripHarvest);
    for (size_t i = 0; i < query.locations.size(); ++i) {
      if (cancel_ != nullptr && cancel_->ShouldAbort()) {
        return Status::DeadlineExceeded("trip query cancelled during harvest");
      }
      harvester_.Harvest(view_, db_->model(), matched, query.locations[i],
                         query.segments_per_location, query.window,
                         &result.stats, &cands[i]);
      result.stats.candidates += static_cast<int64_t>(cands[i].size());
    }
  }
  // Distinct trajectories touched: per-location dedup only, so a
  // trajectory harvested for two locations counts twice in hits but the
  // candidates counter above is the per-location candidate total.
  result.stats.visited_trajectories = result.stats.trajectory_hits;

  {
    ScopedPhase phase(&result.stats, QueryPhase::kTripAssemble);
    assembler_.Assemble(query, std::move(cands), oracle_.get(),
                        &result.stats, &result.trips);
  }

  if (oracle_ != nullptr) {
    result.stats.oracle_lookups += oracle_->TakeLookups();
  }
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace uots
