// Per-query instrumentation counters.
//
// "Number of visited trajectories" is the primary data-access metric used by
// the paper family's evaluations (it is storage-location independent); the
// remaining counters support the ablation analyses. The phase breakdown
// (phase_ns) says where a query's wall time went — spatial expansion vs
// textual filtering vs bound maintenance vs scheduling vs refinement — at a
// granularity every engine shares, so benches and services can report it
// without knowing which algorithm ran.

#ifndef UOTS_UTIL_COUNTERS_H_
#define UOTS_UTIL_COUNTERS_H_

#include <cstdint>
#include <span>
#include <string>

#include "util/timer.h"
#include "util/trace.h"

namespace uots {

/// \brief The fixed set of search phases every engine accounts its time to.
///
/// Engines differ in which phases they exercise (brute force never
/// schedules; the Euclidean baseline never expands), but a phase means the
/// same thing everywhere, so breakdowns are comparable across algorithms.
enum class QueryPhase : int {
  /// Keyword-index probe, posting-list scan, and textual candidate sort.
  kTextualFilter = 0,
  /// Network/timeline expansion rounds, including per-hit state updates
  /// (for UOTS this includes the fused exact scoring of fully-scanned
  /// trajectories; bulk spatial precomputation like full shortest-path
  /// trees also counts here).
  kSpatialExpansion,
  /// Termination-bound upkeep: radius sums, cached-bound checks, rebuilds.
  kBoundMaintenance,
  /// Query-source scheduling decisions (heuristic label argmax etc.).
  kScheduling,
  /// Candidate refinement / result materialization: exact scoring sweeps
  /// in filter-and-refine baselines, final top-k extraction and sort.
  kRefinement,
  /// Trip assembly only: per-location candidate-segment harvest (network
  /// expansions over the merged view plus segment extraction).
  kTripHarvest,
  /// Trip assembly only: visit ordering, connector distances, and the
  /// k-best DP over segment endpoints.
  kTripAssemble,
};

inline constexpr int kNumQueryPhases = 7;

/// Stable lower_snake name of a phase ("textual_filter", ...).
const char* ToString(QueryPhase phase);

/// \brief Counters collected while answering a single query.
struct QueryStats {
  /// Distinct trajectories touched by any domain of the search.
  int64_t visited_trajectories = 0;
  /// Trajectory "data accesses": every (query source, trajectory) hit.
  int64_t trajectory_hits = 0;
  /// Vertices settled by network expansions.
  int64_t settled_vertices = 0;
  /// Priority-queue pops across all expansions. With the indexed frontier
  /// heap this equals settled_vertices exactly (no stale entries).
  int64_t heap_pops = 0;
  /// Frontier-heap inserts across all expansions (first relaxations).
  int64_t heap_pushes = 0;
  /// In-place DecreaseKey relaxations (would each have been an extra
  /// push + stale pop under the old lazy-deletion queue).
  int64_t heap_decreases = 0;
  /// Pops that settled nothing; structurally 0 with the indexed heap, kept
  /// so any regression to lazy behavior is observable.
  int64_t heap_stale_pops = 0;
  /// Trajectories whose exact score was fully evaluated (candidates).
  int64_t candidates = 0;
  /// Posting-list entries scanned in the textual domain.
  int64_t posting_entries = 0;
  /// Scheduling decisions taken (query-source switches included).
  int64_t schedule_steps = 0;
  /// Full recomputations of the cached global upper bound / label sums
  /// (the incremental bookkeeping's fallback path).
  int64_t bound_rebuilds = 0;
  /// Query sources whose expansion adopted a cached distance-field prefix
  /// (cross-query cache; see cache/distance_field_cache.h).
  int64_t dcache_hits = 0;
  /// Settle events served by replaying cached prefixes instead of heap work.
  int64_t dcache_replayed = 0;
  /// Prefixes this query published (new or extended) back into the cache.
  int64_t dcache_published = 0;
  /// Distance-oracle kernel invocations (pairwise or one-to-many searches;
  /// see oracle/querier.h). 0 when no oracle is attached or in use.
  int64_t oracle_lookups = 0;
  /// Candidates the oracle resolved to an exact score at or below the prune
  /// threshold — work a plain expansion would have spent rounds bounding.
  int64_t oracle_pruned_candidates = 0;
  /// Wall time accounted to each QueryPhase, in nanoseconds. Phases cover
  /// the bulk of a query but not 100% of elapsed_ms (validation and
  /// per-round glue are unattributed).
  int64_t phase_ns[kNumQueryPhases] = {};
  /// Wall-clock time spent answering the query.
  double elapsed_ms = 0.0;

  int64_t PhaseNs(QueryPhase phase) const {
    return phase_ns[static_cast<int>(phase)];
  }
  double PhaseMillis(QueryPhase phase) const {
    return static_cast<double>(PhaseNs(phase)) / 1e6;
  }
  /// Sum over all phases (<= elapsed_ms expressed in ns).
  int64_t TotalPhaseNs() const {
    int64_t total = 0;
    for (int i = 0; i < kNumQueryPhases; ++i) total += phase_ns[i];
    return total;
  }

  QueryStats& operator+=(const QueryStats& o) {
    visited_trajectories += o.visited_trajectories;
    trajectory_hits += o.trajectory_hits;
    settled_vertices += o.settled_vertices;
    heap_pops += o.heap_pops;
    heap_pushes += o.heap_pushes;
    heap_decreases += o.heap_decreases;
    heap_stale_pops += o.heap_stale_pops;
    candidates += o.candidates;
    posting_entries += o.posting_entries;
    schedule_steps += o.schedule_steps;
    bound_rebuilds += o.bound_rebuilds;
    dcache_hits += o.dcache_hits;
    dcache_replayed += o.dcache_replayed;
    dcache_published += o.dcache_published;
    oracle_lookups += o.oracle_lookups;
    oracle_pruned_candidates += o.oracle_pruned_candidates;
    for (int i = 0; i < kNumQueryPhases; ++i) phase_ns[i] += o.phase_ns[i];
    elapsed_ms += o.elapsed_ms;
    return *this;
  }

  std::string ToString() const;
  /// Flat JSON object; phase times under "phase_ms" keyed by phase name.
  /// Counters print in full, doubles as printf "%g" (6 significant digits).
  std::string ToJson() const;
  /// Appends the ToJson() object to `out` (the wire encoders' form).
  void AppendJson(std::string* out) const;
};

/// \brief One integer counter of QueryStats and its JSON key.
struct QueryStatsField {
  const char* key;
  int64_t QueryStats::*member;
};

/// Every integer counter, in ToJson() order: what the JSON writer emits
/// and what a decoder reads back.
std::span<const QueryStatsField> QueryStatsIntFields();

/// \brief RAII phase accounting: adds the scope's wall time to
/// `stats->phase_ns[phase]` and, when a trace session is active, records a
/// span named after the phase. Cost when idle: two clock reads plus one
/// relaxed atomic load — safe inside per-round search loops.
class ScopedPhase {
 public:
  ScopedPhase(QueryStats* stats, QueryPhase phase)
      : stats_(stats), phase_(phase), span_(ToString(phase)) {}
  ~ScopedPhase() {
    stats_->phase_ns[static_cast<int>(phase_)] += timer_.ElapsedNanos();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  QueryStats* stats_;
  QueryPhase phase_;
  TraceScope span_;  // no-op unless a trace session is active / compiled in
  WallTimer timer_;
};

}  // namespace uots

#endif  // UOTS_UTIL_COUNTERS_H_
