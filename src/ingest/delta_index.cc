#include "ingest/delta_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace uots {

namespace {

/// Builds a sorted sparse CSR from (key, global id) pairs. Pairs arrive in
/// ascending global-id order per key (trips are indexed in id order), so
/// after the stable key sort each slice is ascending; duplicates (a trip
/// revisiting a vertex) collapse via unique.
void BuildSparse(std::vector<std::pair<uint32_t, TrajId>> pairs,
                 std::vector<uint32_t>* keys, std::vector<uint32_t>* offsets,
                 std::vector<TrajId>* entries) {
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  keys->clear();
  offsets->clear();
  entries->clear();
  offsets->push_back(0);
  size_t i = 0;
  while (i < pairs.size()) {
    const uint32_t key = pairs[i].first;
    keys->push_back(key);
    const size_t start = entries->size();
    for (; i < pairs.size() && pairs[i].first == key; ++i) {
      if (entries->size() == start || entries->back() != pairs[i].second) {
        entries->push_back(pairs[i].second);
      }
    }
    offsets->push_back(static_cast<uint32_t>(entries->size()));
  }
}

}  // namespace

std::span<const TrajId> DeltaIndex::SparsePostings::At(uint32_t key) const {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return {};
  const size_t i = static_cast<size_t>(it - keys.begin());
  return {entries.data() + offsets[i], entries.data() + offsets[i + 1]};
}

size_t DeltaIndex::SparsePostings::bytes() const {
  return keys.capacity() * sizeof(uint32_t) +
         offsets.capacity() * sizeof(uint32_t) +
         entries.capacity() * sizeof(TrajId);
}

DeltaIndex::DeltaIndex(uint64_t generation, TrajId base_count,
                       const std::vector<Trajectory>& trips)
    : generation_(generation), base_count_(base_count) {
  std::vector<std::pair<uint32_t, TrajId>> vertex_pairs;
  std::vector<std::pair<uint32_t, TrajId>> term_pairs;
  for (size_t i = 0; i < trips.size(); ++i) {
    const auto added = store_.Add(trips[i]);
    assert(added.ok() && "ingest validates trips before building the delta");
    (void)added;
    const TrajId global = base_count_ + static_cast<TrajId>(i);
    for (const Sample& s : trips[i].samples) {
      vertex_pairs.emplace_back(static_cast<uint32_t>(s.vertex), global);
    }
    for (TermId t : trips[i].keywords.terms()) {
      term_pairs.emplace_back(static_cast<uint32_t>(t), global);
    }
  }
  BuildSparse(std::move(vertex_pairs), &vertex_postings_.keys,
              &vertex_postings_.offsets, &vertex_postings_.entries);
  BuildSparse(std::move(term_pairs), &keyword_postings_.keys,
              &keyword_postings_.offsets, &keyword_postings_.entries);
}

std::span<const TrajId> DeltaIndex::TrajectoriesAt(VertexId v) const {
  return vertex_postings_.At(static_cast<uint32_t>(v));
}

std::span<const TrajId> DeltaIndex::Postings(TermId t) const {
  return keyword_postings_.At(static_cast<uint32_t>(t));
}

void DeltaIndex::ScoreCandidates(const KeywordSet& query,
                                 const TextualSimilarity& sim,
                                 std::vector<ScoredDoc>* out,
                                 int64_t* posting_entries) const {
  if (query.empty() || store_.empty()) return;

  // Per-call scratch (delta is small); local ids keep it dense.
  std::vector<uint32_t> count(store_.size(), 0);
  std::vector<TrajId> touched;
  for (TermId t : query.terms()) {
    for (TrajId global : Postings(t)) {
      if (posting_entries != nullptr) ++*posting_entries;
      const TrajId local = global - base_count_;
      if (count[local] == 0) touched.push_back(local);
      ++count[local];
    }
  }

  // The same TextualSimilarity::ScoreCounts formula the base index uses,
  // so merged scores are bitwise equal to a monolithic rebuild's. (Ingest
  // refuses kWeighted models, whose idf depends on global document
  // frequencies a delta cannot reproduce; Score keeps the method total.)
  const bool weighted = sim.measure() == TextualMeasure::kWeighted;
  for (TrajId local : touched) {
    const KeywordSet& doc = store_.KeywordsOf(local);
    out->push_back(ScoredDoc{
        base_count_ + local,
        weighted ? sim.Score(query, doc)
                 : sim.ScoreCounts(count[local], query.size(), doc.size())});
  }
}

size_t DeltaIndex::MemoryUsage() const {
  return store_.Memory().total() + vertex_postings_.bytes() +
         keyword_postings_.bytes();
}

}  // namespace uots
