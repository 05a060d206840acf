// Per-connection state: a non-blocking socket with buffered frame I/O.
//
// A Connection owns its fd, the incremental FrameDecoder for the inbound
// byte stream, and the outbound buffer. It reads and writes through
// server/socket.h; everything above (frame handling, timers, epoll
// registration) belongs to the server, which is the only thread that ever
// touches a Connection.
//
// Responses leave in request order. Each inbound frame takes the next
// sequence number when it is read, and a response is queued for writing
// only once the responses to every earlier frame have been; one that is
// ready early (a cache hit behind a miss, a fast worker behind a slow one)
// is parked until its turn. With one request in flight nothing ever parks.

#ifndef UOTS_SERVER_CONNECTION_H_
#define UOTS_SERVER_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "server/protocol.h"
#include "server/socket.h"
#include "server/timer_heap.h"

namespace uots {

/// \brief One accepted client connection (single-threaded use).
class Connection {
 public:
  /// Takes ownership of `fd` (closed on destruction or Close()).
  Connection(uint64_t id, int fd, size_t max_frame_bytes);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  uint64_t id() const { return id_; }
  int fd() const { return fd_; }
  bool closed() const { return fd_ < 0; }

  /// Reads the socket into the frame decoder; kClosed comes after the
  /// bytes read are appended, so Poll before acting on it.
  IoResult ReadAvailable();

  /// The inbound frame stream; Poll after every ReadAvailable.
  FrameDecoder& decoder() { return decoder_; }

  /// Numbers the next inbound frame (call once per frame, in read order).
  uint64_t NextRequestSeq() { return next_read_seq_++; }

  /// Queues the response to frame `seq` behind those of all earlier frames,
  /// parking it until they are queued; call Flush (or wait for
  /// writability). Every sequence number must be answered exactly once.
  void QueueResponse(uint64_t seq, std::string body);

  /// Writes as much buffered output as the socket accepts.
  IoResult Flush();

  /// True while buffered output remains (caller keeps EPOLLOUT armed).
  bool want_write() const { return out_offset_ < out_.size(); }
  size_t pending_out_bytes() const { return out_.size() - out_offset_; }

  /// Closes the fd early (destructor is a no-op afterwards).
  void Close();

  // --- fields owned by the server's orchestration (not by this class) ---
  TimerHeap::TimerId idle_timer = TimerHeap::kInvalidTimer;
  int64_t last_read_ns = 0;  ///< EventLoop::NowNs() of the last read
  int inflight = 0;          ///< requests admitted and not yet responded
  bool close_after_flush = false;

 private:
  /// Appends one frame to the outbound buffer.
  void QueueFrame(std::string_view payload);

  uint64_t id_;
  int fd_;
  FrameDecoder decoder_;
  std::string out_;
  size_t out_offset_ = 0;
  uint64_t next_read_seq_ = 0;   ///< sequence number of the next frame read
  uint64_t next_write_seq_ = 0;  ///< frame whose response is queued next
  std::map<uint64_t, std::string> parked_;  ///< early responses, by seq
};

}  // namespace uots

#endif  // UOTS_SERVER_CONNECTION_H_
