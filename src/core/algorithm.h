// Common interface of all UOTS search algorithms.

#ifndef UOTS_CORE_ALGORITHM_H_
#define UOTS_CORE_ALGORITHM_H_

#include <memory>
#include <string>

#include "core/database.h"
#include "core/query.h"
#include "util/cancel.h"

namespace uots {

/// Identifies a search algorithm implementation.
enum class AlgorithmKind {
  kBruteForce,       ///< exact scan; ground truth ("BF")
  kTextFirst,        ///< textual-first filter-and-refine baseline ("TF")
  kUots,             ///< two-domain expansion search with heuristic ("UOTS")
  kUotsNoHeuristic,  ///< UOTS with round-robin scheduling ("UOTS-w/o-h")
  kUotsSequential,   ///< UOTS expanding sources one at a time ("UOTS-seq")
  kEuclidean,        ///< Euclidean-distance variant ("EU"; approximate!)
};

const char* ToString(AlgorithmKind kind);

/// How the UOTS searcher schedules its query sources (ablation A1).
enum class SchedulingPolicy {
  /// Exhaust one source before starting the next — what an implementation
  /// without any scheduling strategy does.
  kSequential,
  /// Cycle through the sources in fixed order.
  kRoundRobin,
  /// The paper family's priority labels (see core/search.h).
  kHeuristic,
};

/// \brief A stateful (per-thread) search engine over one database.
///
/// Implementations hold reusable scratch buffers, so a single instance is
/// NOT thread-safe; create one per worker thread (they share the const
/// database).
class SearchAlgorithm {
 public:
  virtual ~SearchAlgorithm() = default;

  /// Answers `query`; invalid queries yield an error. With a cancel token
  /// installed, a search that observes ShouldAbort() returns
  /// kDeadlineExceeded at its next round boundary (engines without round
  /// structure may ignore the token; UOTS and BF honour it).
  virtual Result<SearchResult> Search(const UotsQuery& query) = 0;

  /// Installs (nullptr clears) the cooperative cancel/deadline token polled
  /// by subsequent Search calls. The token must outlive its use; a server
  /// re-arms one token per request before each Search.
  void set_cancel(const CancelToken* cancel) { cancel_ = cancel; }
  const CancelToken* cancel() const { return cancel_; }

  virtual const char* name() const = 0;

 protected:
  /// True when the installed token (if any) requests an abort.
  bool ShouldAbort() const { return cancel_ != nullptr && cancel_->ShouldAbort(); }

 private:
  const CancelToken* cancel_ = nullptr;
};

class DistanceFieldCache;  // cache/distance_field_cache.h

/// \brief Tuning knobs for the UOTS searcher (see core/search.h).
struct UotsSearchOptions {
  /// Query-source scheduling policy.
  SchedulingPolicy scheduling = SchedulingPolicy::kHeuristic;
  /// Expansion settles between scheduling / termination checks. With the
  /// oracle in use every round is exactly this long; without it this is
  /// the minimum, and a round grows to a quarter of the partly-scanned set
  /// so per-round bookkeeping stays amortized.
  int batch_size = 64;
  /// Optional cross-query expansion-prefix cache shared between engines
  /// (thread-safe; see cache/distance_field_cache.h). Null = off. Results
  /// are bit-identical either way; only heap work is saved. Excluded from
  /// result-cache keys for the same reason.
  std::shared_ptr<DistanceFieldCache> distance_cache;
  /// Use the database's distance oracle (when one is attached) to resolve
  /// candidates exactly on first contact and skip expansion rounds.
  /// Results are bit-identical either way (see oracle/ch_oracle.h); like
  /// the distance cache, excluded from result-cache keys.
  bool use_oracle = true;
};

/// Creates a fresh engine of the given kind over `db`.
std::unique_ptr<SearchAlgorithm> CreateAlgorithm(
    const TrajectoryDatabase& db, AlgorithmKind kind,
    const UotsSearchOptions& uots_opts = {});

}  // namespace uots

#endif  // UOTS_CORE_ALGORITHM_H_
