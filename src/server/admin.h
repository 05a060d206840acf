// Live introspection plane: an HTTP/1.0 admin listener on the reactor.
//
// The admin plane runs on the *same* EventLoop thread as the query server,
// which is the whole trick: every piece of state it exposes (connection
// map, loop inflight count, drain flag, slow-query log) is loop-owned, so
// serving /statusz or /slowqueries needs no locking and can never observe
// a torn update. Scrapes are tiny (a few KiB of text rendered in
// microseconds), so sharing the reactor costs the query path nothing
// measurable — see EXPERIMENTS.md M4.
//
// Endpoints (HTTP/1.0, one request per connection, Connection: close):
//   GET  /metrics      Prometheus text, every series read from its owner
//                      as the page renders: the server's histograms
//                      (ServerHistogramFields; cumulative buckets and
//                      quantiles), its ServerCounters (ServerCounterFields),
//                      the service's oracle totals, the result cache's
//                      stats, the ingestor's tallies, and liveness gauges.
//   GET  /statusz      JSON: uptime, build info, dataset fingerprint and
//                      shape, oracle/snapshot presence, live connection
//                      count, executor queue depth, in-flight requests.
//   GET  /healthz      Drain-aware liveness: 200 "ok" while serving,
//                      503 "draining" once graceful shutdown begins.
//   GET  /slowqueries  JSON ring of the slowest and the most recent
//                      requests: canonical query summary, per-phase time
//                      breakdown, cache/oracle counters, request id, and
//                      (for sampled requests) the captured span tree.
//   GET  /tracing      Current trace-sampling rate as JSON.
//   POST /tracing?sample=N
//                      Capture the span tree of every Nth executed request
//                      into its slow-log entry; 0 disables. Takes effect
//                      immediately, no restart. N outside 0..2147483647
//                      answers 400 and leaves the rate as it was.

#ifndef UOTS_SERVER_ADMIN_H_
#define UOTS_SERVER_ADMIN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/http.h"
#include "server/timer_heap.h"
#include "util/counters.h"
#include "util/status.h"
#include "util/trace.h"

namespace uots {

class UotsServer;

/// \brief One completed request as remembered by the slow-query log.
struct SlowLogEntry {
  std::string request_id;     ///< correlation id (client-supplied or s*-*)
  std::string algorithm;      ///< ToString(AlgorithmKind) name, or "TRIP"
  std::string query_summary;  ///< canonical "locs=.. kw=.. lambda=.. k=.."
  /// Segment count of the best assembled trip (trip requests only; -1 for
  /// retrieval queries, omitted from the JSON rendering).
  int segments = -1;
  std::string status;         ///< wire status name ("ok", ...)
  bool cached = false;        ///< answered from the result cache
  double total_ms = 0.0;      ///< arrival -> response queued
  double queue_wait_ms = 0.0;
  double execute_ms = 0.0;
  int64_t completed_unix_ms = 0;  ///< wall clock at completion
  bool has_stats = false;
  QueryStats stats;           ///< engine counters incl. phase_ns breakdown
  /// Captured span tree when this request was trace-sampled; names have
  /// static storage duration so the entries stay valid indefinitely.
  std::vector<TraceEvent> spans;
};

/// \brief Bounded log of the slowest + most recent completed requests.
///
/// Loop-thread-only by design (the reactor is the sole writer and the
/// admin endpoints — same thread — the sole reader), so it needs no lock:
/// "lock-cheap" here is literal. Add() is O(slowest capacity) in the worst
/// case, on vectors of a few dozen entries.
class SlowQueryLog {
 public:
  SlowQueryLog(size_t recent_capacity, size_t slowest_capacity)
      : recent_capacity_(recent_capacity),
        slowest_capacity_(slowest_capacity) {}

  void Add(SlowLogEntry entry);

  /// Most recent first.
  const std::deque<SlowLogEntry>& recent() const { return recent_; }
  /// Slowest first (by total_ms).
  const std::vector<SlowLogEntry>& slowest() const { return slowest_; }
  /// Lifetime number of entries offered to Add().
  int64_t added() const { return added_; }

 private:
  size_t recent_capacity_;
  size_t slowest_capacity_;
  std::deque<SlowLogEntry> recent_;    ///< front = newest
  std::vector<SlowLogEntry> slowest_;  ///< sorted descending total_ms
  int64_t added_ = 0;
};

/// The admin plane's slow-query log keeps this many of the most recent
/// requests and this many of the slowest.
inline constexpr size_t kSlowLogRecent = 64;
inline constexpr size_t kSlowLogSlowest = 32;

/// \brief Admin-plane configuration (ServerOptions::admin).
struct AdminOptions {
  std::string bind_address = "127.0.0.1";
  /// -1 = admin plane disabled (default); 0 = ephemeral (read the bound
  /// port from AdminPlane::port()); else the fixed port to bind.
  int port = -1;
};

/// \brief The admin HTTP listener; owned by UotsServer, lives on its loop.
///
/// Every method (besides the atomic trace_sample_every accessors) must be
/// called on the server's loop thread, or before Run() starts.
class AdminPlane {
 public:
  AdminPlane(UotsServer* server, const AdminOptions& opts);
  ~AdminPlane();

  AdminPlane(const AdminPlane&) = delete;
  AdminPlane& operator=(const AdminPlane&) = delete;

  /// Binds and registers the listener on the server's loop.
  Status Start();

  /// Closes the listener and every admin connection (idempotent). Called
  /// when the server's loop is about to stop; the destructor also closes
  /// raw fds for the case where the loop is already gone.
  void Shutdown();

  uint16_t port() const { return port_; }
  SlowQueryLog& slowlog() { return slowlog_; }

  /// Trace-sampling period: capture the span tree of every Nth executed
  /// request; 0 = sampling off. Readable from any thread.
  int trace_sample_every() const {
    return trace_sample_every_.load(std::memory_order_relaxed);
  }
  void set_trace_sample_every(int n) {
    trace_sample_every_.store(n < 0 ? 0 : n, std::memory_order_relaxed);
  }

  /// Renders the full Prometheus exposition (also used by tests).
  std::string RenderMetrics() const;

 private:
  struct AdminConn {
    int fd = -1;
    HttpRequestParser parser;
    std::string out;
    size_t out_offset = 0;
    TimerHeap::TimerId read_timer = TimerHeap::kInvalidTimer;
  };

  void OnAcceptReady();
  void OnConnEvent(uint64_t id, uint32_t events);
  /// Routes one parsed request; returns the complete HTTP response bytes.
  std::string Dispatch(const HttpRequest& req);
  std::string RenderStatusz() const;
  std::string RenderSlowQueries() const;
  std::string RenderHealthz(int* status) const;
  void QueueResponse(uint64_t id, AdminConn* conn, std::string response);
  /// Writes what the socket takes of the response; closes the connection
  /// once it is all written or the peer is gone, else waits for EPOLLOUT.
  void FlushConn(uint64_t id, AdminConn* conn);
  void CloseConn(uint64_t id);

  UotsServer* server_;
  AdminOptions opts_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, AdminConn> conns_;
  SlowQueryLog slowlog_;
  std::atomic<int> trace_sample_every_{0};
};

/// Wall-clock milliseconds since the unix epoch (slow-log timestamps).
int64_t SlowLogNowUnixMs();

}  // namespace uots

#endif  // UOTS_SERVER_ADMIN_H_
