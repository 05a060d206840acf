#include "ingest/ingestor.h"

#include <string>
#include <utility>

namespace uots {

namespace {

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

uint64_t TrajectoryContentHash(const Trajectory& t) {
  uint64_t h = 0xc4ceb9fe1a85ec53ULL;
  h = MixHash(h, t.samples.size());
  for (const Sample& s : t.samples) {
    h = MixHash(h, static_cast<uint64_t>(s.vertex));
    h = MixHash(h, static_cast<uint64_t>(static_cast<uint32_t>(s.time_s)));
  }
  h = MixHash(h, t.keywords.size());
  for (TermId k : t.keywords.terms()) {
    h = MixHash(h, static_cast<uint64_t>(k));
  }
  return h;
}

Ingestor::Ingestor(const TrajectoryDatabase* db) : db_(db) {}

Status Ingestor::ValidateTrip(const Trajectory& t) const {
  if (!t.IsValid()) {
    return Status::InvalidArgument(
        "trajectory must be non-empty with nondecreasing time-of-day "
        "timestamps");
  }
  const size_t num_vertices = db_->network().NumVertices();
  for (const Sample& s : t.samples) {
    if (static_cast<size_t>(s.vertex) >= num_vertices) {
      return Status::InvalidArgument(
          "sample vertex " + std::to_string(s.vertex) +
          " out of range (network has " + std::to_string(num_vertices) +
          " vertices)");
    }
  }
  // An empty vocabulary means term ids are raw (generator datasets); any
  // id is addressable by the inverted index. With a vocabulary, unknown
  // terms are rejected — the snapshot validator enforces the same bound.
  const size_t vocab = db_->vocabulary().size();
  if (vocab > 0) {
    for (TermId k : t.keywords.terms()) {
      if (static_cast<size_t>(k) >= vocab) {
        return Status::InvalidArgument(
            "keyword term " + std::to_string(k) +
            " out of range (vocabulary has " + std::to_string(vocab) +
            " terms)");
      }
    }
  }
  return Status::OK();
}

Result<Ingestor::ApplyResult> Ingestor::Apply(std::vector<Trajectory> trips) {
  if (trips.empty()) {
    return Status::InvalidArgument("ingest batch is empty");
  }
  if (db_->model().textual().measure() == TextualMeasure::kWeighted) {
    rejected_total_ += static_cast<int64_t>(trips.size());
    return Status::InvalidArgument(
        "live ingest is unavailable under the weighted (idf) textual "
        "measure: delta answers could not be bit-identical to a rebuild");
  }

  // Validate the whole batch before touching any state (all-or-nothing).
  std::unordered_set<uint64_t> batch_hashes;
  for (size_t i = 0; i < trips.size(); ++i) {
    Status st = ValidateTrip(trips[i]);
    if (st.ok()) {
      const uint64_t h = TrajectoryContentHash(trips[i]);
      if (seen_.count(h) != 0 || !batch_hashes.insert(h).second) {
        st = Status::InvalidArgument("duplicate trajectory content");
      }
    }
    if (!st.ok()) {
      rejected_total_ += static_cast<int64_t>(trips.size());
      return Status::InvalidArgument("trajectory " + std::to_string(i) +
                                     " rejected: " + st.message());
    }
  }

  const TrajId base_count = static_cast<TrajId>(db_->store().size());
  const TrajId first_id = base_count + static_cast<TrajId>(pending_.size());
  for (auto& t : trips) {
    seen_.insert(TrajectoryContentHash(t));
    pending_.push_back(std::move(t));
  }
  ++batches_total_;
  Publish();

  ApplyResult r;
  r.first_id = first_id;
  r.accepted = trips.size();
  r.generation = generation_;
  return r;
}

void Ingestor::Publish() {
  ++generation_;
  const TrajId base_count = static_cast<TrajId>(db_->store().size());
  if (pending_.empty()) {
    delta_.reset();
    db_->PublishDelta(nullptr, generation_);
    return;
  }
  delta_ = std::make_shared<DeltaIndex>(generation_, base_count, pending_);
  db_->PublishDelta(delta_, generation_);
}

void Ingestor::Rebase(const TrajectoryDatabase* new_db, size_t compacted) {
  db_ = new_db;
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(compacted));
  // The new base absorbed `compacted` trips, so survivor global ids are
  // unchanged: new_base + (j - compacted) == old_base + j.
  Publish();
}

}  // namespace uots
