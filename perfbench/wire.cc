#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "server/http.h"
#include "server/json.h"

namespace perfbench {

using uots::Status;

WireClient::~WireClient() { Close(); }

void WireClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  decoder_ = uots::FrameDecoder();
}

Status WireClient::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::IOError(std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    Close();
    return Status::IOError("connect: " + err);
  }
  return Status::OK();
}

Status WireClient::Call(const std::string& frame, std::string* payload) {
  if (fd_ < 0) return Status::IOError("not connected");
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  char buf[65536];
  for (;;) {
    switch (decoder_.Poll(payload)) {
      case uots::FrameDecoder::Next::kFrame:
        return Status::OK();
      case uots::FrameDecoder::Next::kOversized:
        return Status::IOError("oversized response frame");
      case uots::FrameDecoder::Next::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError(n == 0 ? "connection closed"
                                    : std::string("recv: ") +
                                          std::strerror(errno));
    }
    decoder_.Append(buf, static_cast<size_t>(n));
  }
}

uots::Result<std::string> AdminGet(uint16_t port, const std::string& path) {
  auto r = uots::HttpFetch("127.0.0.1", port, path);
  if (!r.ok()) return r.status();
  if (r->status != 200) {
    return Status::IOError(path + " returned " + std::to_string(r->status));
  }
  return std::move(r->body);
}

Status AdminCompact(uint16_t port) {
  auto r = uots::HttpFetch("127.0.0.1", port, "/compact", "POST");
  if (!r.ok()) return r.status();
  if (r->status != 202) {
    return Status::IOError("/compact returned " + std::to_string(r->status) +
                           ": " + r->body);
  }
  return Status::OK();
}

uots::Result<CompactionState> ReadCompactionState(uint16_t port) {
  auto body = AdminGet(port, "/statusz");
  if (!body.ok()) return body.status();
  auto doc = uots::ParseJson(*body);
  if (!doc.ok()) return doc.status();
  const uots::JsonValue* dataset = doc->Find("dataset");
  const uots::JsonValue* counters = doc->Find("counters");
  if (dataset == nullptr || counters == nullptr) {
    return Status::IOError("/statusz lacks dataset or counters");
  }
  CompactionState state;
  const uots::JsonValue* compacting = dataset->Find("compacting");
  const uots::JsonValue* compactions = counters->Find("compactions");
  if (compacting == nullptr || compactions == nullptr) {
    return Status::IOError("/statusz lacks compaction fields");
  }
  state.compacting = compacting->BoolOr(false);
  state.compactions = static_cast<int64_t>(compactions->NumberOr(0));
  return state;
}

double MetricValue(const std::string& metrics_text,
                   const std::string& series) {
  double v = 0.0;
  uots::promtext::FindValue(metrics_text, series, &v);
  return v;
}

}  // namespace perfbench
