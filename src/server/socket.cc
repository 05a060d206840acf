#include "server/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>

namespace uots {

namespace {

/// IOError "<what>: <strerror(errno)>"; closes `fd`, if given, after
/// reading errno.
Status ErrnoError(const std::string& what, int fd = -1) {
  Status st = Status::IOError(what + ": " + std::strerror(errno));
  if (fd >= 0) ::close(fd);
  return st;
}

/// Fills `addr` with `host:port`; false when `host` is not a dotted quad.
bool MakeAddress(const std::string& host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

void SetOption(int fd, int level, int name) {
  const int one = 1;
  ::setsockopt(fd, level, name, &one, sizeof(one));
}

}  // namespace

Result<TcpListener> ListenTcp(const std::string& address, uint16_t port,
                              int backlog) {
  sockaddr_in addr;
  if (!MakeAddress(address, port, &addr)) {
    return Status::InvalidArgument("bad bind address: " + address);
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoError("socket");
  SetOption(fd, SOL_SOCKET, SO_REUSEADDR);
  const std::string where = address + ":" + std::to_string(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    return ErrnoError("bind " + where, fd);
  }
  if (::listen(fd, backlog) < 0) return ErrnoError("listen " + where, fd);
  TcpListener out{fd, port};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    out.port = ntohs(addr.sin_port);
  }
  return out;
}

int AcceptTcp(int listen_fd) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      SetOption(fd, IPPROTO_TCP, TCP_NODELAY);
      return fd;
    }
    if (errno != EINTR) return -1;  // EAGAIN, or EMFILE and the like
  }
}

Result<int> ConnectTcp(const std::string& host, uint16_t port,
                       double timeout_ms) {
  sockaddr_in addr;
  if (!MakeAddress(host, port, &addr)) {
    return Status::InvalidArgument("bad address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoError("socket");
  if (timeout_ms > 0.0) {
    timeval tv;
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoError("connect", fd);
  }
  SetOption(fd, IPPROTO_TCP, TCP_NODELAY);
  return fd;
}

IoResult WriteAvailable(int fd, std::string_view out, size_t* offset) {
  while (*offset < out.size()) {
    const ssize_t n = ::send(fd, out.data() + *offset, out.size() - *offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      *offset += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
    if (errno == EINTR) continue;
    return IoResult::kClosed;  // EPIPE/ECONNRESET: peer is gone
  }
  return IoResult::kOk;
}

Status SendAll(int fd, std::string_view data) {
  // On a blocking fd the pass stops short only on an error, or on EAGAIN
  // once the send timeout expires.
  size_t sent = 0;
  if (WriteAvailable(fd, data, &sent) == IoResult::kOk && sent == data.size()) {
    return Status::OK();
  }
  return ErrnoError("send");
}

Result<size_t> RecvSome(int fd, char* buf, size_t cap) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("recv timed out");
    }
    return ErrnoError("recv");
  }
}

}  // namespace uots
