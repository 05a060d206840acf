// Bounded top-k accumulator for scored trajectories.

#ifndef UOTS_CORE_TOPK_H_
#define UOTS_CORE_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "core/query.h"

namespace uots {

/// \brief Keeps the k highest-scoring trajectories seen so far.
///
/// `Item` is any scored trajectory with an `id` and a `score`:
/// ScoredTrajectory for the retrieval engines, TemporalScoredTrajectory for
/// the 3-D ones. Implemented as a binary min-heap on score; Threshold() (the
/// k-th best score) is the pruning bound used by every search algorithm.
template <typename Item = ScoredTrajectory>
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) { heap_.reserve(k + 1); }

  /// Offers an item; keeps it only if it beats the current boundary item.
  /// Score ties at the boundary break by ascending id, so the kept set —
  /// and therefore every engine's answer — does not depend on the order in
  /// which equal-score candidates were offered.
  void Offer(const Item& item) {
    if (heap_.size() < k_) {
      heap_.push_back(item);
      std::push_heap(heap_.begin(), heap_.end(), MinOrder);
      return;
    }
    const Item& worst = heap_.front();
    if (item.score > worst.score ||
        (item.score == worst.score && item.id < worst.id)) {
      std::pop_heap(heap_.begin(), heap_.end(), MinOrder);
      heap_.back() = item;
      std::push_heap(heap_.begin(), heap_.end(), MinOrder);
    }
  }

  bool Full() const { return heap_.size() >= k_; }

  /// Score a new item must exceed to enter; -inf until k items are held.
  double Threshold() const {
    return Full() ? heap_.front().score
                  : -std::numeric_limits<double>::infinity();
  }

  size_t size() const { return heap_.size(); }

  /// Extracts items in descending score order (stable for equal scores by
  /// ascending id, keeping results deterministic).
  std::vector<Item> Finish() && {
    std::sort(heap_.begin(), heap_.end(), [](const Item& a, const Item& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.id < b.id;
    });
    return std::move(heap_);
  }

 private:
  /// Min-heap whose root is the boundary item: lowest score, and among
  /// equal scores the highest id (the one an equal-score, lower-id offer
  /// should displace).
  static bool MinOrder(const Item& a, const Item& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }

  size_t k_;
  std::vector<Item> heap_;
};

}  // namespace uots

#endif  // UOTS_CORE_TOPK_H_
