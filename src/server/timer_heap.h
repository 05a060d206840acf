// Min-heap timer subsystem for the serving event loop.
//
// One binary min-heap of (deadline, timer id) nodes drives every timed
// behaviour in the server: per-connection idle timeouts, per-request
// deadlines, and the shutdown drain fuse. Cancel uses lazy deletion: the
// callbacks of live timers sit in a side map keyed by id, and a heap node
// whose id has left the map is dropped when it reaches the top. An early
// live timer (a compaction tick) would keep every later cancelled node in
// the heap, so once cancelled nodes outnumber live timers Cancel rebuilds
// the heap from the live ones: the heap never holds more than
// 2 * pending() nodes after a cancel, at amortized O(1) per cancel. Ids are
// never reused, so a node names at most one timer. Not thread-safe: the
// owning event loop is single-threaded by design, and cross-thread arming
// goes through EventLoop::Post.

#ifndef UOTS_SERVER_TIMER_HEAP_H_
#define UOTS_SERVER_TIMER_HEAP_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace uots {

/// \brief Monotonic-deadline timer queue with cancel.
class TimerHeap {
 public:
  using TimerId = uint64_t;
  /// Never returned by Add; safe "no timer" sentinel for callers.
  static constexpr TimerId kInvalidTimer = 0;

  /// Schedules `callback` to run when RunExpired is called with
  /// now >= `deadline_ns` (steady-clock nanoseconds, CancelToken::NowNs).
  TimerId Add(int64_t deadline_ns, std::function<void()> callback);

  /// Cancels a pending timer. \return false when the id already fired,
  /// was cancelled, or never existed (kInvalidTimer included).
  bool Cancel(TimerId id);

  /// Earliest pending deadline, or -1 when no timer is pending. Prunes
  /// cancelled nodes off the heap top as a side effect.
  int64_t NextDeadlineNs();

  /// Fires every timer with deadline <= `now_ns` in deadline order (ties by
  /// creation order). A callback may Add/Cancel freely; timers it adds
  /// that are already due fire in the same call. \return the number of
  /// callbacks run.
  int RunExpired(int64_t now_ns);

  /// Timers armed and not yet fired or cancelled.
  size_t pending() const { return pending_.size(); }
  /// Heap nodes, cancelled ones not yet dropped included.
  size_t nodes() const { return heap_.size(); }

 private:
  struct Node {
    int64_t deadline_ns;
    TimerId id;  ///< ids rise with creation order: the tie-break
  };

  static bool Later(const Node& a, const Node& b) {
    if (a.deadline_ns != b.deadline_ns) return a.deadline_ns > b.deadline_ns;
    return a.id > b.id;
  }
  void PopNode();
  /// Drops cancelled nodes off the top.
  void PruneTop();

  std::vector<Node> heap_;  ///< binary min-heap by (deadline, id)
  std::unordered_map<TimerId, std::function<void()>> pending_;
  TimerId next_id_ = 1;
};

}  // namespace uots

#endif  // UOTS_SERVER_TIMER_HEAP_H_
