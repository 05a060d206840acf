#include "server/connection.h"

#include <unistd.h>

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

IoResult Connection::ReadAvailable() {
  return uots::ReadAvailable(fd_, decoder_);
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

IoResult Connection::Flush() {
  return WriteAvailable(fd_, out_, &out_offset_);
}

}  // namespace uots
