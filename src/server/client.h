// Blocking client for the UOTS wire protocol.
//
// One connection, synchronous request/response. This is the reference
// implementation of the protocol from the client side — the load generator
// (apps/uots_client) and the loopback integration tests both drive it.
// Pipelining is supported by splitting Call into Send + Receive: queue any
// number of Sends, then Receive responses in order.

#ifndef UOTS_SERVER_CLIENT_H_
#define UOTS_SERVER_CLIENT_H_

#include <cstdint>
#include <string>

#include "server/protocol.h"
#include "util/status.h"

namespace uots {

/// \brief Synchronous TCP client speaking the length-prefixed JSON protocol.
class BlockingClient {
 public:
  BlockingClient() = default;
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// Connects (blocking) to host:port. `host` is a dotted-quad address.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends one request frame (blocking until fully written).
  Status Send(const QueryRequest& req);
  Status Send(const TripRequest& req);
  Status Send(const IngestRequest& req);

  /// Receives the next response frame as a query response (blocking).
  Result<QueryResponse> Receive();

  /// Send + receive the response. Responses arrive in request order, so
  /// do not interleave with pipelined Sends still awaiting Receive().
  Result<QueryResponse> Call(const QueryRequest& req);
  Result<TripResponse> Call(const TripRequest& req);
  Result<IngestResponse> Call(const IngestRequest& req);

 private:
  /// Frames `payload` and writes it.
  Status SendPayload(const std::string& payload);
  /// The receive loop: reads until one whole frame is buffered, then
  /// returns its payload.
  Result<std::string> ReceivePayload();

  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace uots

#endif  // UOTS_SERVER_CLIENT_H_
