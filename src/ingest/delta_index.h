// In-memory delta layer for live ingest (DESIGN.md §11).
//
// The base TrajectoryDatabase is immutable — possibly a zero-copy view
// over an mmap'd snapshot — so new trips cannot be inserted in place.
// Instead they accumulate in a DeltaIndex: a small, fully-indexed,
// *immutable* structure holding every trajectory ingested since the last
// compaction. Each applied ingest batch rebuilds the DeltaIndex wholesale
// from the accumulated trips and publishes it as a new sealed generation;
// readers snapshot the shared_ptr once per query and never observe a
// mutation (LSM memtable flavored, except the "memtable" is replaced, not
// mutated, so no reader-side synchronization is needed beyond the pointer
// load).
//
// Delta trajectories get global TrajIds above the base range:
//
//   global id = base_count + local index (assignment order)
//
// which keeps every posting list invariant the snapshot validator
// enforces: base postings are ascending and < base_count, delta postings
// are ascending and >= base_count, so base-then-delta concatenation is
// itself sorted and deduplicated. That is the keystone of the
// bit-identity guarantee — a MergedView walk enumerates candidates in
// exactly the order a rebuilt monolithic index would.

#ifndef UOTS_INGEST_DELTA_INDEX_H_
#define UOTS_INGEST_DELTA_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "text/inverted_index.h"
#include "text/keyword_set.h"
#include "text/similarity.h"
#include "traj/store.h"
#include "traj/trajectory.h"

namespace uots {

/// \brief Immutable index over the trajectories ingested since the last
/// compaction. Thread-safe by construction (no mutation after build).
class DeltaIndex {
 public:
  /// Builds the full delta index over `trips`. `generation` is the sealed
  /// generation number this index publishes as; `base_count` the number of
  /// base trajectories (global ids start there).
  DeltaIndex(uint64_t generation, TrajId base_count,
             const std::vector<Trajectory>& trips);

  /// Sealed generation number (monotonic per ingest batch; 0 = no delta).
  uint64_t generation() const { return generation_; }
  /// Number of base trajectories; the first delta trip's global id.
  TrajId base_count() const { return base_count_; }
  /// Number of delta trajectories.
  size_t size() const { return store_.size(); }

  /// Columnar store of the delta trips, addressed by *local* id
  /// (global id - base_count()).
  const TrajectoryStore& store() const { return store_; }

  /// Global ids of delta trajectories with a sample at `v` (ascending,
  /// deduplicated, all >= base_count()). Empty for untouched vertices.
  std::span<const TrajId> TrajectoriesAt(VertexId v) const;

  /// Global ids of delta trajectories containing term `t` (ascending).
  std::span<const TrajId> Postings(TermId t) const;

  /// \brief Scores every delta trajectory sharing >= 1 term with `query`,
  /// appending {global id, SimT} to `out`.
  ///
  /// Scores through TextualSimilarity::ScoreCounts, as
  /// InvertedKeywordIndex::ScoreCandidates does, so a delta doc's score is
  /// bitwise equal to what a rebuilt monolithic index would produce for
  /// the same trip. Uses per-call scratch: safe to call from concurrent
  /// query threads on the shared published index.
  void ScoreCandidates(const KeywordSet& query, const TextualSimilarity& sim,
                       std::vector<ScoredDoc>* out,
                       int64_t* posting_entries = nullptr) const;

  /// Approximate heap bytes held by this index.
  size_t MemoryUsage() const;

 private:
  /// Binary-searched sparse CSR: `keys` holds the sorted distinct vertex /
  /// term ids that occur in the delta, `offsets[i]..offsets[i+1]` slices
  /// `entries`. Sparse because a delta of a few thousand trips touches a
  /// tiny fraction of a city-scale key space; rebuilding dense arrays per
  /// generation would make publish cost O(V), not O(delta).
  struct SparsePostings {
    std::vector<uint32_t> keys;
    std::vector<uint32_t> offsets;
    std::vector<TrajId> entries;

    std::span<const TrajId> At(uint32_t key) const;
    size_t bytes() const;
  };

  uint64_t generation_ = 0;
  TrajId base_count_ = 0;
  TrajectoryStore store_;
  SparsePostings vertex_postings_;
  SparsePostings keyword_postings_;
};

}  // namespace uots

#endif  // UOTS_INGEST_DELTA_INDEX_H_
