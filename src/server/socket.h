// TCP sockets: every socket call of the query port, the admin port and the
// blocking clients (CI fails a socket syscall anywhere else in src/ or
// apps/). Accepted and connected sockets set TCP_NODELAY, and every send
// passes MSG_NOSIGNAL, so a peer that has gone away is an EPIPE error,
// never a SIGPIPE.

#ifndef UOTS_SERVER_SOCKET_H_
#define UOTS_SERVER_SOCKET_H_

#include <sys/socket.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace uots {

/// \brief A listening socket and the port it is bound to.
struct TcpListener {
  int fd = -1;
  uint16_t port = 0;  ///< the bound port (the one picked when asked for 0)
};

/// Binds `address:port` (`address` a dotted quad, port 0 = ephemeral) and
/// listens. The fd is non-blocking and close-on-exec, with SO_REUSEADDR.
/// On failure the fd is closed.
Result<TcpListener> ListenTcp(const std::string& address, uint16_t port,
                              int backlog);

/// Accepts one pending connection: a non-blocking, close-on-exec fd with
/// TCP_NODELAY, or -1 when none is pending or on an error such as EMFILE,
/// which the listener's next readiness retries.
int AcceptTcp(int listen_fd);

/// Connects to `host:port` (`host` a dotted quad): a blocking fd with
/// TCP_NODELAY. A positive `timeout_ms` bounds the connect and every later
/// send and receive on it (SO_SNDTIMEO, SO_RCVTIMEO).
Result<int> ConnectTcp(const std::string& host, uint16_t port,
                       double timeout_ms = 0.0);

/// \brief Outcome of a read or write pass over a non-blocking socket.
enum class IoResult {
  kOk,     ///< progress made (possibly zero bytes, EAGAIN)
  kClosed  ///< end of stream or a fatal socket error: drop the connection
};

/// Reads what the non-blocking `fd` holds into `sink.Append(data, n)`,
/// 16 KiB at a time, until a read comes up short or would block. kClosed
/// (end of stream, or an error such as ECONNRESET) comes only after every
/// byte read so far has reached the sink: parse those before acting on it.
template <typename Sink>
IoResult ReadAvailable(int fd, Sink& sink) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      sink.Append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) return IoResult::kOk;
      continue;  // possibly more queued
    }
    if (n == 0) return IoResult::kClosed;  // orderly shutdown by peer
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
    if (errno == EINTR) continue;
    return IoResult::kClosed;  // ECONNRESET and friends
  }
}

/// Writes `out` from `*offset` on, advancing `*offset`, until all of it is
/// written or `fd` would block. kClosed: the peer is gone (EPIPE, ...).
IoResult WriteAvailable(int fd, std::string_view out, size_t* offset);

/// Writes all of `data` to the blocking `fd`.
Status SendAll(int fd, std::string_view data);

/// Reads up to `cap` bytes from the blocking `fd` into `buf`: the count
/// read, 0 at end of stream, DeadlineExceeded when the receive timeout
/// (ConnectTcp's `timeout_ms`) expires.
Result<size_t> RecvSome(int fd, char* buf, size_t cap);

}  // namespace uots

#endif  // UOTS_SERVER_SOCKET_H_
