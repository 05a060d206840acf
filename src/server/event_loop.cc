#include "server/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/cancel.h"

namespace uots {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

int64_t EventLoop::NowNs() { return CancelToken::NowNs(); }

Status EventLoop::Init() {
  if (epoll_fd_ >= 0) return Status::OK();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::Internal(Errno("epoll_create1"));
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::Internal(Errno("eventfd"));
  }
  return AddFd(wake_fd_, EPOLLIN, [this](uint32_t) {
    uint64_t drained;
    while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
    }
  });
}

Status EventLoop::AddFd(int fd, uint32_t events, FdCallback callback) {
  if (epoll_fd_ < 0) return Status::Internal("EventLoop not initialized");
  if (fds_.count(fd) != 0) {
    return Status::AlreadyExists("fd already registered");
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Status::Internal(Errno("epoll_ctl(ADD)"));
  }
  fds_.emplace(fd, std::make_shared<FdCallback>(std::move(callback)));
  return Status::OK();
}

Status EventLoop::SetEvents(int fd, uint32_t events) {
  if (fds_.count(fd) == 0) return Status::NotFound("fd not registered");
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Status::Internal(Errno("epoll_ctl(MOD)"));
  }
  return Status::OK();
}

void EventLoop::RemoveFd(int fd) {
  if (fds_.erase(fd) == 0) return;
  // The fd may already be closed by the caller; a failed DEL is harmless.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

TimerHeap::TimerId EventLoop::AddTimerAt(int64_t deadline_ns,
                                         std::function<void()> callback) {
  return timers_.Add(deadline_ns, std::move(callback));
}

TimerHeap::TimerId EventLoop::AddTimerAfterMs(double delay_ms,
                                              std::function<void()> callback) {
  const int64_t delay_ns =
      delay_ms > 0.0 ? static_cast<int64_t>(delay_ms * 1e6) : 0;
  return timers_.Add(NowNs() + delay_ns, std::move(callback));
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  Wakeup();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  Wakeup();
}

void EventLoop::Wakeup() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  // The eventfd counter saturating (EAGAIN) still leaves it readable, so a
  // failed write never loses a wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::RunPosted() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& t : tasks) t();
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  stop_.store(false, std::memory_order_relaxed);
  while (!stop_.load(std::memory_order_relaxed)) {
    // Posted tasks first: they may arm timers or change fd interest.
    RunPosted();
    if (stop_.load(std::memory_order_relaxed)) break;

    int timeout_ms = -1;
    const int64_t next = timers_.NextDeadlineNs();
    if (next >= 0) {
      const int64_t delta_ns = next - NowNs();
      // Round up so we do not spin on a not-quite-due timer.
      timeout_ms = delta_ns <= 0
                       ? 0
                       : static_cast<int>((delta_ns + 999999) / 1000000);
    }
    {
      std::lock_guard<std::mutex> lock(post_mu_);
      if (!posted_.empty()) timeout_ms = 0;  // raced in after RunPosted
    }

    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable epoll failure; leave Run rather than spin
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      // Fresh lookup per event: an earlier callback in this batch may have
      // removed this fd.
      auto it = fds_.find(fd);
      if (it == fds_.end()) continue;
      std::shared_ptr<FdCallback> cb = it->second;  // keep alive across call
      (*cb)(events[i].events);
    }
    timers_.RunExpired(NowNs());
  }
  RunPosted();  // drain: completions posted during the final iteration
}

}  // namespace uots
