#include "server/timer_heap.h"

#include <algorithm>
#include <utility>

namespace uots {

TimerHeap::TimerId TimerHeap::Add(int64_t deadline_ns,
                                  std::function<void()> callback) {
  const TimerId id = next_id_++;
  pending_.emplace(id, std::move(callback));
  heap_.push_back(Node{deadline_ns, id});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  return id;
}

bool TimerHeap::Cancel(TimerId id) {
  // Lazy deletion: the heap node stays and is skipped when popped, until
  // cancelled nodes outnumber live timers. Then the live nodes are
  // re-heaped; (deadline, id) is a total order, so firing order is kept.
  if (pending_.erase(id) == 0) return false;
  if (heap_.size() > 2 * pending_.size()) {
    std::erase_if(heap_,
                  [this](const Node& n) { return !pending_.contains(n.id); });
    std::make_heap(heap_.begin(), heap_.end(), Later);
  }
  return true;
}

int64_t TimerHeap::NextDeadlineNs() {
  PruneTop();
  return heap_.empty() ? -1 : heap_.front().deadline_ns;
}

int TimerHeap::RunExpired(int64_t now_ns) {
  int fired = 0;
  for (;;) {
    PruneTop();
    if (heap_.empty() || heap_.front().deadline_ns > now_ns) break;
    const TimerId id = heap_.front().id;
    PopNode();
    auto it = pending_.find(id);
    // PruneTop guaranteed the node was live; extract before invoking so the
    // callback sees the timer as already fired (Cancel returns false) and
    // may re-arm the heap freely.
    std::function<void()> cb = std::move(it->second);
    pending_.erase(it);
    cb();
    ++fired;
  }
  return fired;
}

void TimerHeap::PopNode() {
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
}

void TimerHeap::PruneTop() {
  while (!heap_.empty() && !pending_.contains(heap_.front().id)) PopNode();
}

}  // namespace uots
