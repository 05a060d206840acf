// The UOTS two-domain expansion search — the paper's contribution.
//
// For one query with m locations and a keyword set:
//
//  * Textual domain: a single probe of the keyword inverted index yields
//    the exact SimT of every keyword-sharing trajectory (all others have
//    SimT = 0 exactly). Candidates are kept in descending SimT order; the
//    head of the not-yet-fully-scanned remainder upper-bounds the textual
//    component of everything unseen.
//  * Spatial domain: one incremental network expansion per query location
//    ("query source"). When expansion i first settles a vertex of
//    trajectory tau, the settled distance IS d(o_i, tau) exactly.
//
//  Upper bound of a partly scanned tau (radius r_i of expansion i lower-
//  bounds d(o_i, tau) for every source that has not scanned tau yet):
//
//    SimS.ub(tau) = (1/m) [ sum_{i in mask} e^(-d_i/sigma)
//                         + sum_{i not in mask} e^(-r_i/sigma) ]
//    SimU.ub(tau) = lambda * SimS.ub(tau) + (1-lambda) * SimT(tau)
//
//  Global bound: max over partly scanned of SimU.ub, versus
//    lambda * (1/m) sum_i e^(-r_i/sigma) + (1-lambda) * maxRemainingSimT
//  for everything spatially unseen. The search stops when the pruning
//  threshold (the k-th exact score for top-k queries, theta for threshold
//  queries) reaches the global bound — everything unresolved is pruned.
//
//  Scheduling (the paper family's query-source priority): the next source
//  to expand maximizes label(i) = sum of SimU.ub over partly scanned
//  trajectories not yet scanned from source i — the source with the most
//  potential to turn promising partial candidates into fully scanned ones.
//  Ablations: round-robin and sequential policies (core/algorithm.h).

#ifndef UOTS_CORE_SEARCH_H_
#define UOTS_CORE_SEARCH_H_

#include <memory>
#include <vector>

#include "cache/expansion_cursor.h"
#include "core/algorithm.h"
#include "ingest/merged_view.h"
#include "oracle/querier.h"
#include "util/versioned.h"

namespace uots {

/// \brief The UOTS search engine (stateful scratch; one per thread).
class UotsSearcher : public SearchAlgorithm {
 public:
  UotsSearcher(const TrajectoryDatabase& db, const UotsSearchOptions& opts = {});

  /// Top-k search: the k highest-scoring trajectories.
  Result<SearchResult> Search(const UotsQuery& query) override;

  /// Threshold search: every trajectory with SimU >= theta, descending.
  /// `query.k` is ignored. The same bounds prune the search space; the
  /// expansion stops once nothing unresolved can reach theta.
  Result<SearchResult> SearchThreshold(const UotsQuery& query, double theta);

  const char* name() const override {
    switch (opts_.scheduling) {
      case SchedulingPolicy::kHeuristic:
        return "UOTS";
      case SchedulingPolicy::kRoundRobin:
        return "UOTS-w/o-h";
      case SchedulingPolicy::kSequential:
        return "UOTS-seq";
    }
    return "UOTS";
  }

 private:
  /// Per-trajectory scan state (created on first spatial hit).
  struct TrajState {
    TrajId id = kInvalidTraj;
    uint64_t mask = 0;       ///< query sources that have scanned this traj
    int known = 0;           ///< popcount(mask)
    double sum_decay = 0.0;  ///< sum of e^(-d_i/sigma) over scanned sources
    double text = 0.0;       ///< exact SimT
    /// SimU upper bound cached when the state was last touched/rebuilt.
    /// Radii only grow and decays only shrink, so this never underestimates
    /// the state's true current bound (see RunSearch).
    double cached_ub = 0.0;
    /// Base index of this state's m per-source decays in decay_pool_.
    size_t decay_base = 0;
  };

  /// \brief Result-collection policy shared by the top-k and threshold
  /// modes: Accept() consumes each fully-scanned (exact-score) trajectory,
  /// PruneThreshold() is the score everything unresolved must beat.
  class Sink;

  /// Runs the two-domain search, feeding exact results into `sink`.
  /// \return kDeadlineExceeded when the installed cancel token fired
  /// (checked once per scheduling round); OK otherwise.
  Status RunSearch(const UotsQuery& query, Sink* sink, QueryStats* stats);

  /// Probes the keyword index and fills text_docs_ / text_of_.
  void ResolveTextualDomain(const UotsQuery& query, QueryStats* stats);

  Result<SearchResult> SearchTextOnly(const UotsQuery& query);
  Result<SearchResult> SearchTextOnlyThreshold(const UotsQuery& query,
                                               double theta);

  const TrajectoryDatabase* db_;
  UotsSearchOptions opts_;
  /// Base+delta read surface, rebound at the top of every Search /
  /// SearchThreshold so one query sees one sealed ingest generation.
  MergedView view_;
  /// Exact-distance oracle queries; null without an attached oracle (or
  /// with opts_.use_oracle off). Per-searcher scratch, like expansions_.
  std::unique_ptr<OracleQuerier> oracle_;
  /// Expansion cursors: plain resumable Dijkstras without a distance cache,
  /// replay/record front-ends with one (opts_.distance_cache).
  std::vector<std::unique_ptr<ExpansionCursor>> expansions_;
  VersionedArray<int32_t> state_slot_;  ///< traj id -> index into states_
  VersionedArray<double> text_of_;      ///< traj id -> exact SimT
  std::vector<TrajState> states_;
  std::vector<int32_t> partial_;        ///< indexes of partly scanned states
  /// Per-state, per-source decays e^(-d_i/sigma), m slots per state. Final
  /// scores always sum these in source order — the same association order
  /// as SimilarityModel::SpatialSim — so a score does not depend on which
  /// source happened to scan the trajectory first (and matches the oracle
  /// path and the brute-force reference bit for bit).
  std::vector<double> decay_pool_;
  std::vector<ScoredDoc> text_docs_;    ///< textual candidates, SimT desc
  /// Counter scratch for the shared keyword index (one per engine — the
  /// index itself must stay read-only under concurrent queries).
  TextScoringScratch text_scratch_;
};

}  // namespace uots

#endif  // UOTS_CORE_SEARCH_H_
