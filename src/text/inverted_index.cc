#include "text/inverted_index.h"

#include <algorithm>
#include <cassert>

namespace uots {

void InvertedKeywordIndex::AddDocument(DocId doc, const KeywordSet& keys) {
  assert(!finalized_);
  auto& doc_sizes = doc_sizes_.mutable_vec();
  if (doc >= doc_sizes.size()) doc_sizes.resize(doc + 1, 0);
  doc_sizes[doc] = static_cast<uint32_t>(keys.size());
  for (TermId t : keys.terms()) {
    if (t >= building_.size()) building_.resize(t + 1);
    building_[t].push_back(doc);
  }
}

void InvertedKeywordIndex::Finalize() {
  size_t total = 0;
  for (auto& p : building_) {
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
    total += p.size();
  }
  std::vector<uint64_t> offsets;
  offsets.reserve(building_.size() + 1);
  offsets.push_back(0);
  std::vector<DocId> postings;
  postings.reserve(total);
  for (const auto& p : building_) {
    postings.insert(postings.end(), p.begin(), p.end());
    offsets.push_back(postings.size());
  }
  building_.clear();
  building_.shrink_to_fit();
  offsets_ = std::move(offsets);
  postings_ = std::move(postings);
  finalized_ = true;
}

InvertedKeywordIndex InvertedKeywordIndex::FromColumns(
    ColumnVec<uint64_t> offsets, ColumnVec<DocId> postings,
    ColumnVec<uint32_t> doc_sizes) {
  InvertedKeywordIndex idx;
  idx.offsets_ = std::move(offsets);
  idx.postings_ = std::move(postings);
  idx.doc_sizes_ = std::move(doc_sizes);
  idx.finalized_ = true;
  return idx;
}

std::span<const DocId> InvertedKeywordIndex::Postings(TermId t) const {
  assert(finalized_);
  if (t >= num_terms()) return {};
  return {postings_.data() + offsets_[t], postings_.data() + offsets_[t + 1]};
}

void InvertedKeywordIndex::ScoreCandidates(
    const KeywordSet& query, const TextualSimilarity& sim,
    std::vector<ScoredDoc>* out, int64_t* posting_entries,
    const std::function<KeywordSet(DocId)>& doc_keys,
    TextScoringScratch* scratch) const {
  assert(finalized_);
  out->clear();
  if (query.empty()) return;

  // The index is shared across threads, so the counters must not live in
  // it (they used to, as mutable members — concurrent queries silently
  // corrupted each other's overlap counts). A caller without a reusable
  // scratch pays a fresh zero-filled one per call.
  TextScoringScratch local;
  if (scratch == nullptr) scratch = &local;
  if (scratch->count.size() != doc_sizes_.size()) {
    scratch->count.assign(doc_sizes_.size(), 0);
    scratch->count_version.assign(doc_sizes_.size(), 0);
    scratch->version = 0;
  }
  ++scratch->version;
  const uint32_t version = scratch->version;
  uint32_t* const count = scratch->count.data();
  uint32_t* const count_version = scratch->count_version.data();

  // Merge posting lists, counting per-document term overlap.
  std::vector<DocId> touched;
  for (TermId t : query.terms()) {
    for (DocId d : Postings(t)) {
      if (posting_entries != nullptr) ++*posting_entries;
      if (count_version[d] != version) {
        count_version[d] = version;
        count[d] = 0;
        touched.push_back(d);
      }
      ++count[d];
    }
  }

  out->reserve(touched.size());
  const bool weighted = sim.measure() == TextualMeasure::kWeighted;
  assert((!weighted || doc_keys) && "kWeighted requires a doc_keys accessor");
  for (DocId d : touched) {
    out->push_back(ScoredDoc{
        d, weighted ? sim.Score(query, doc_keys(d))
                    : sim.ScoreCounts(count[d], query.size(), doc_sizes_[d])});
  }
}

std::vector<int64_t> InvertedKeywordIndex::DocumentFrequencies() const {
  assert(finalized_);
  const size_t n = num_terms();
  std::vector<int64_t> df(n);
  for (size_t t = 0; t < n; ++t) {
    df[t] = static_cast<int64_t>(offsets_[t + 1] - offsets_[t]);
  }
  return df;
}

MemoryBreakdown InvertedKeywordIndex::Memory() const {
  MemoryBreakdown m;
  m += offsets_.Memory();
  m += postings_.Memory();
  m += doc_sizes_.Memory();
  for (const auto& p : building_) m.heap_bytes += p.capacity() * sizeof(DocId);
  return m;
}

}  // namespace uots
