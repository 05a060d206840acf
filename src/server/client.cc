#include "server/client.h"

#include <unistd.h>

#include "server/socket.h"

namespace uots {

namespace {

/// Decodes a received frame's payload with `parse`, passing errors on.
template <typename Response>
Result<Response> Decode(Result<std::string> payload,
                        Result<Response> (*parse)(std::string_view)) {
  if (!payload.ok()) return payload.status();
  return parse(*payload);
}

}  // namespace

BlockingClient::~BlockingClient() { Close(); }

void BlockingClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status BlockingClient::Connect(const std::string& host, uint16_t port) {
  Close();
  Result<int> fd = ConnectTcp(host, port);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  return Status::OK();
}

Status BlockingClient::SendPayload(const std::string& payload) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  return SendAll(fd_, EncodeFrame(payload));
}

Result<std::string> BlockingClient::ReceivePayload() {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  for (;;) {
    std::string payload;
    size_t oversized = 0;
    const FrameDecoder::Next next = decoder_.Poll(&payload, &oversized);
    if (next == FrameDecoder::Next::kFrame) return payload;
    if (next == FrameDecoder::Next::kOversized) {
      return Status::IOError("server sent an oversized frame (" +
                             std::to_string(oversized) + " bytes)");
    }
    char buf[16384];
    const Result<size_t> n = RecvSome(fd_, buf, sizeof(buf));
    if (!n.ok()) return n.status();
    if (*n == 0) return Status::IOError("connection closed by server");
    decoder_.Append(buf, *n);
  }
}

Status BlockingClient::Send(const QueryRequest& req) {
  return SendPayload(EncodeQueryRequest(req));
}

Status BlockingClient::Send(const TripRequest& req) {
  return SendPayload(EncodeTripRequest(req));
}

Status BlockingClient::Send(const IngestRequest& req) {
  return SendPayload(EncodeIngestRequest(req));
}

Result<QueryResponse> BlockingClient::Receive() {
  return Decode(ReceivePayload(), ParseQueryResponse);
}

Result<QueryResponse> BlockingClient::Call(const QueryRequest& req) {
  UOTS_RETURN_NOT_OK(Send(req));
  return Receive();
}

Result<TripResponse> BlockingClient::Call(const TripRequest& req) {
  UOTS_RETURN_NOT_OK(Send(req));
  return Decode(ReceivePayload(), ParseTripResponse);
}

Result<IngestResponse> BlockingClient::Call(const IngestRequest& req) {
  UOTS_RETURN_NOT_OK(Send(req));
  return Decode(ReceivePayload(), ParseIngestResponse);
}

}  // namespace uots
