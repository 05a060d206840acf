// Ingestor — the write side of live ingest (DESIGN.md §11).
//
// Owns everything mutable about the delta layer: the accumulated trip
// list, the duplicate-content filter, the generation counter, and the
// batch/reject tallies. Single-writer by design: the server calls every
// method from its reactor thread (queries never touch the Ingestor; they
// read the sealed DeltaIndex the Ingestor publishes), so none of this
// needs a lock.
//
// Apply() is atomic per batch: either every trajectory in the request
// validates and the whole batch becomes the next sealed generation, or
// nothing is ingested and the first offending trip is named in the error.
// Atomicity keeps retry semantics trivial for clients (a failed batch
// changed nothing) and keeps TrajId assignment contiguous per batch.

#ifndef UOTS_INGEST_INGESTOR_H_
#define UOTS_INGEST_INGESTOR_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/database.h"
#include "ingest/delta_index.h"
#include "traj/trajectory.h"
#include "util/status.h"

namespace uots {

/// \brief Content hash of one trajectory (samples + keywords), used to
/// reject duplicate submissions (client retries after a lost response).
uint64_t TrajectoryContentHash(const Trajectory& t);

/// \brief Single-writer ingest state machine over one TrajectoryDatabase.
class Ingestor {
 public:
  /// `db` must outlive the Ingestor (or be replaced via Rebase before
  /// destruction of the old database).
  explicit Ingestor(const TrajectoryDatabase* db);

  struct ApplyResult {
    TrajId first_id = kInvalidTraj;  ///< global id of the first new trip
    size_t accepted = 0;             ///< trips in this batch
    uint64_t generation = 0;         ///< the generation now serving
  };

  /// \brief Validates and ingests one batch (all-or-nothing).
  ///
  /// On success the new DeltaIndex generation is already published on the
  /// database: the next query observes every trip in the batch. Fails with
  /// InvalidArgument on a malformed trip, an out-of-range vertex or term, a
  /// duplicate submission, or a kWeighted textual model (idf weights depend
  /// on global document frequencies, so a delta overlay cannot be
  /// bit-identical to a rebuild; see DESIGN.md §11).
  Result<ApplyResult> Apply(std::vector<Trajectory> trips);

  /// \brief Re-targets the ingestor after a compaction swap.
  ///
  /// `compacted` of the pending trips (the seal-time prefix) are now part
  /// of `new_db`'s base; the survivors keep their global ids (new base
  /// count = old base count + compacted) and are re-published on `new_db`
  /// as the next generation — or, with no survivors, the generation still
  /// advances with a null delta so cache salts move past the swap.
  void Rebase(const TrajectoryDatabase* new_db, size_t compacted);

  /// Pending (uncompacted) trips, oldest first; local id = position.
  const std::vector<Trajectory>& pending() const { return pending_; }
  uint64_t generation() const { return generation_; }
  /// Approximate heap bytes of the published DeltaIndex (0 when none).
  size_t delta_bytes() const { return delta_ ? delta_->MemoryUsage() : 0; }
  size_t delta_trajectories() const { return pending_.size(); }

  int64_t rejected_total() const { return rejected_total_; }
  int64_t batches_total() const { return batches_total_; }

 private:
  /// Validates one trip against the current database's limits.
  Status ValidateTrip(const Trajectory& t) const;
  /// Rebuilds + publishes the DeltaIndex for the current pending set.
  void Publish();

  const TrajectoryDatabase* db_;
  std::vector<Trajectory> pending_;
  /// Content hashes of every trip ever accepted (survives compaction):
  /// the duplicate filter is a retry guard, so it must keep rejecting a
  /// trip after compaction folded the original into the base.
  std::unordered_set<uint64_t> seen_;
  std::shared_ptr<const DeltaIndex> delta_;
  uint64_t generation_ = 0;
  int64_t rejected_total_ = 0;
  int64_t batches_total_ = 0;
};

}  // namespace uots

#endif  // UOTS_INGEST_INGESTOR_H_
