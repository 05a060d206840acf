// Single-threaded epoll event loop with timers and cross-thread posting.
//
// The serving layer's reactor: non-blocking fds are registered with a
// callback per fd (level-triggered — the callback runs as long as the
// condition holds), timers ride the TimerHeap and bound each epoll_wait,
// and other threads hand work to the loop through Post(), which enqueues a
// task and wakes the loop via an eventfd. This is how thread-pool workers
// return completed query results to the loop that owns the connections —
// the loop thread is the only one that ever touches connection state, so
// the server needs no per-connection locking at all.

#ifndef UOTS_SERVER_EVENT_LOOP_H_
#define UOTS_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "server/timer_heap.h"
#include "util/status.h"

namespace uots {

/// \brief Level-triggered epoll reactor; Run() on exactly one thread.
///
/// Thread-safety: Post() and Stop() may be called from any thread; every
/// other method must be called from the loop thread (or before Run).
class EventLoop {
 public:
  /// Receives the ready EPOLL* event mask for the fd.
  using FdCallback = std::function<void(uint32_t events)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and the wakeup eventfd. Must be called
  /// (successfully) before anything else; idempotent.
  Status Init();

  /// Registers `fd` for `events` (EPOLLIN and/or EPOLLOUT). The loop never
  /// takes ownership of the fd; close it after RemoveFd.
  Status AddFd(int fd, uint32_t events, FdCallback callback);

  /// Changes the interest mask of a registered fd.
  Status SetEvents(int fd, uint32_t events);

  /// Unregisters the fd. Safe to call from inside its own callback; any
  /// remaining ready events for it in the current batch are dropped.
  void RemoveFd(int fd);

  /// Arms a timer at an absolute steady-clock deadline (CancelToken::NowNs
  /// time base).
  TimerHeap::TimerId AddTimerAt(int64_t deadline_ns,
                                std::function<void()> callback);
  /// Arms a timer `delay_ms` from now (<= 0 fires on the next iteration).
  TimerHeap::TimerId AddTimerAfterMs(double delay_ms,
                                     std::function<void()> callback);
  bool CancelTimer(TimerHeap::TimerId id) { return timers_.Cancel(id); }

  /// Enqueues `fn` to run on the loop thread and wakes the loop. The only
  /// safe way for worker threads to touch loop-owned state.
  void Post(std::function<void()> fn);

  /// Dispatches events, timers, and posted tasks until Stop().
  void Run();

  /// Requests Run() to return after the current iteration; any thread.
  void Stop();

  bool stopped() const { return stop_.load(std::memory_order_relaxed); }
  TimerHeap& timers() { return timers_; }

  /// Steady-clock nanoseconds, the loop's (and the timers') time base.
  static int64_t NowNs();

 private:
  void Wakeup();
  void RunPosted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  // shared_ptr so a callback that removes its own (or another) fd during
  // dispatch never frees a std::function that is still executing.
  std::unordered_map<int, std::shared_ptr<FdCallback>> fds_;
  TimerHeap timers_;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;

  std::atomic<bool> stop_{false};
};

}  // namespace uots

#endif  // UOTS_SERVER_EVENT_LOOP_H_
