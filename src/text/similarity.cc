#include "text/similarity.h"

#include <cmath>

namespace uots {

const char* ToString(TextualMeasure m) {
  switch (m) {
    case TextualMeasure::kJaccard:
      return "jaccard";
    case TextualMeasure::kDice:
      return "dice";
    case TextualMeasure::kOverlap:
      return "overlap";
    case TextualMeasure::kCosine:
      return "cosine";
    case TextualMeasure::kWeighted:
      return "weighted-jaccard";
  }
  return "unknown";
}

void TextualSimilarity::SetDocumentFrequencies(std::vector<int64_t> df,
                                               int64_t num_docs) {
  idf_.resize(df.size());
  for (size_t t = 0; t < df.size(); ++t) {
    idf_[t] = df[t] > 0
                  ? std::log(1.0 + static_cast<double>(num_docs) / df[t])
                  : std::log(1.0 + static_cast<double>(num_docs));
  }
}

double TextualSimilarity::IdfOf(TermId t) const {
  return t < idf_.size() ? idf_[t] : 1.0;
}

double TextualSimilarity::WeightedJaccard(const KeywordSet& a,
                                          const KeywordSet& b) const {
  const auto& ta = a.terms();
  const auto& tb = b.terms();
  double inter = 0.0, uni = 0.0;
  size_t i = 0, j = 0;
  while (i < ta.size() || j < tb.size()) {
    if (j == tb.size() || (i < ta.size() && ta[i] < tb[j])) {
      uni += IdfOf(ta[i++]);
    } else if (i == ta.size() || tb[j] < ta[i]) {
      uni += IdfOf(tb[j++]);
    } else {
      const double w = IdfOf(ta[i]);
      inter += w;
      uni += w;
      ++i;
      ++j;
    }
  }
  return uni > 0.0 ? inter / uni : 0.0;
}

double TextualSimilarity::Score(const KeywordSet& query,
                                const KeywordSet& doc) const {
  if (query.empty() || doc.empty()) return 0.0;
  if (measure_ == TextualMeasure::kWeighted) return WeightedJaccard(query, doc);
  return ScoreCounts(query.IntersectionSize(doc), query.size(), doc.size());
}

}  // namespace uots
