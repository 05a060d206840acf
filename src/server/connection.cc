#include "server/connection.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace uots {

Connection::Connection(uint64_t id, int fd, size_t max_frame_bytes)
    : id_(id), fd_(fd), decoder_(max_frame_bytes) {}

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Connection::IoResult Connection::ReadAvailable() {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.Append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) return IoResult::kOk;
      continue;  // possibly more queued
    }
    if (n == 0) return IoResult::kClosed;  // orderly shutdown by peer
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
    if (errno == EINTR) continue;
    return IoResult::kClosed;  // ECONNRESET and friends
  }
}

void Connection::QueueFrame(std::string_view payload) {
  // Reclaim the already-written prefix before growing the buffer.
  if (out_offset_ > 0 && out_offset_ == out_.size()) {
    out_.clear();
    out_offset_ = 0;
  } else if (out_offset_ > 65536 && out_offset_ * 2 > out_.size()) {
    out_.erase(0, out_offset_);
    out_offset_ = 0;
  }
  AppendFrame(payload, &out_);
}

void Connection::QueueResponse(uint64_t seq, std::string body) {
  if (seq != next_write_seq_) {
    parked_.emplace(seq, std::move(body));
    return;
  }
  QueueFrame(body);
  ++next_write_seq_;
  while (!parked_.empty() && parked_.begin()->first == next_write_seq_) {
    QueueFrame(parked_.begin()->second);
    parked_.erase(parked_.begin());
    ++next_write_seq_;
  }
}

Connection::IoResult Connection::Flush() {
  while (out_offset_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_offset_,
                             out_.size() - out_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      out_offset_ += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
    if (errno == EINTR) continue;
    return IoResult::kClosed;  // EPIPE/ECONNRESET: peer is gone
  }
  return IoResult::kOk;
}

}  // namespace uots
