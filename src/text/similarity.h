// Textual similarity measures between keyword sets.
//
// The UOTS model scores how well a trajectory's activity keywords match the
// querying user's stated preferences. Jaccard is the default (symmetric,
// in [0,1], parameter-free); the alternatives are provided because the
// exact measure in the original paper cannot be confirmed from the
// available text (DESIGN.md §5.2) and the choice is benchmarked.

#ifndef UOTS_TEXT_SIMILARITY_H_
#define UOTS_TEXT_SIMILARITY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "text/keyword_set.h"

namespace uots {

/// Which set-similarity measure to use for SimT.
enum class TextualMeasure {
  kJaccard,   ///< |A∩B| / |A∪B|
  kDice,      ///< 2|A∩B| / (|A|+|B|)
  kOverlap,   ///< |A∩B| / min(|A|,|B|)
  kCosine,    ///< |A∩B| / sqrt(|A||B|)   (uniform term weights)
  kWeighted,  ///< idf-weighted Jaccard (needs document frequencies)
};

const char* ToString(TextualMeasure m);

/// \brief Computes SimT under a chosen measure; values are in [0,1].
class TextualSimilarity {
 public:
  explicit TextualSimilarity(TextualMeasure measure = TextualMeasure::kJaccard)
      : measure_(measure) {}

  /// Enables kWeighted: df[t] = number of trajectories containing term t,
  /// `num_docs` = total trajectory count. idf(t) = ln(1 + N/df(t)).
  void SetDocumentFrequencies(std::vector<int64_t> df, int64_t num_docs);

  /// Similarity between query keywords and a trajectory's keywords.
  double Score(const KeywordSet& query, const KeywordSet& doc) const;

  /// \brief The counting measures' SimT from set sizes alone: `overlap`
  /// shared terms between a query of `query_size` terms and a document of
  /// `doc_size` terms (both non-empty). Every scorer (Score and both
  /// indexes' ScoreCandidates) goes through this one formula; the operands
  /// are small integers, exact as doubles, so the score is the same bits
  /// wherever it is computed. kWeighted needs the terms themselves: 0.
  double ScoreCounts(size_t overlap, size_t query_size,
                     size_t doc_size) const {
    const double inter = static_cast<double>(overlap);
    const double q = static_cast<double>(query_size);
    const double d = static_cast<double>(doc_size);
    switch (measure_) {
      case TextualMeasure::kJaccard:
        return inter / (q + d - inter);
      case TextualMeasure::kDice:
        return 2.0 * inter / (q + d);
      case TextualMeasure::kOverlap:
        return inter / std::min(q, d);
      case TextualMeasure::kCosine:
        return inter / std::sqrt(q * d);
      case TextualMeasure::kWeighted:
        break;
    }
    return 0.0;
  }

  TextualMeasure measure() const { return measure_; }

 private:
  double WeightedJaccard(const KeywordSet& a, const KeywordSet& b) const;
  double IdfOf(TermId t) const;

  TextualMeasure measure_;
  std::vector<double> idf_;
};

}  // namespace uots

#endif  // UOTS_TEXT_SIMILARITY_H_
