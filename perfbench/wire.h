// The benchmark's side of the wire: one closed-loop TCP connection that
// sends pre-encoded frames, plus the admin-plane calls the driver makes.

#ifndef UOTS_PERFBENCH_WIRE_H_
#define UOTS_PERFBENCH_WIRE_H_

#include <cstdint>
#include <string>

#include "server/protocol.h"
#include "util/status.h"

namespace perfbench {

/// \brief Synchronous connection: write one frame, read one frame back.
///
/// Requests are encoded before the measured window, so the time around
/// Call is socket I/O plus the server, with no client-side encoding or
/// decoding inside it.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  uots::Status Connect(uint16_t port);
  void Close();

  /// Sends `frame` (header included) and receives the next response
  /// payload into `*payload`.
  uots::Status Call(const std::string& frame, std::string* payload);

 private:
  int fd_ = -1;
  uots::FrameDecoder decoder_;
};

/// Body of GET http://127.0.0.1:<port><path>; error on a non-200 reply.
uots::Result<std::string> AdminGet(uint16_t port, const std::string& path);

/// POST /compact; error unless the server accepted it (202).
uots::Status AdminCompact(uint16_t port);

/// One field of /statusz.
struct CompactionState {
  bool compacting = false;
  int64_t compactions = 0;
};
uots::Result<CompactionState> ReadCompactionState(uint16_t port);

/// Value of one Prometheus series on /metrics (0 when absent).
double MetricValue(const std::string& metrics_text, const std::string& series);

}  // namespace perfbench

#endif  // UOTS_PERFBENCH_WIRE_H_
