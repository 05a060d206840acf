#include "server/admin.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <system_error>
#include <utility>

#include "server/json.h"
#include "server/server.h"
#include "server/socket.h"

namespace uots {

// ---------------------------------------------------------------------------
// SlowQueryLog

void SlowQueryLog::Add(SlowLogEntry entry) {
  ++added_;
  // Slowest side first (it may want to share the entry): keep a vector
  // sorted by descending total_ms, replacing the current minimum once full.
  if (slowest_capacity_ > 0) {
    const bool full = slowest_.size() >= slowest_capacity_;
    if (!full || entry.total_ms > slowest_.back().total_ms) {
      if (full) slowest_.pop_back();
      auto pos = std::upper_bound(
          slowest_.begin(), slowest_.end(), entry,
          [](const SlowLogEntry& a, const SlowLogEntry& b) {
            return a.total_ms > b.total_ms;
          });
      slowest_.insert(pos, entry);
    }
  }
  if (recent_capacity_ > 0) {
    recent_.push_front(std::move(entry));
    while (recent_.size() > recent_capacity_) recent_.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Prometheus rendering

namespace {

/// The fixed `le` ladder (seconds) every histogram family is bucketed on.
/// Spans the microsecond-to-seconds range server phases actually occupy.
struct LeBucket {
  const char* label;  ///< exactly what goes inside le="..."
  int64_t ns;
};
constexpr LeBucket kLeLadder[] = {
    {"2.5e-05", 25'000},       {"0.0001", 100'000},
    {"0.00025", 250'000},      {"0.0005", 500'000},
    {"0.001", 1'000'000},      {"0.0025", 2'500'000},
    {"0.005", 5'000'000},      {"0.01", 10'000'000},
    {"0.025", 25'000'000},     {"0.05", 50'000'000},
    {"0.1", 100'000'000},      {"0.25", 250'000'000},
    {"0.5", 500'000'000},      {"1", 1'000'000'000},
    {"2.5", 2'500'000'000},    {"5", 5'000'000'000},
    {"10", 10'000'000'000},
};

void AppendSample(std::string* out, std::string_view series, double value) {
  out->append(series);
  out->push_back(' ');
  JsonAppendDouble(value, out);
  out->push_back('\n');
}

void AppendIntSample(std::string* out, std::string_view series,
                     int64_t value) {
  out->append(series);
  out->push_back(' ');
  out->append(std::to_string(value));
  out->push_back('\n');
}

void AppendHistogramFamily(std::string* out, std::string_view base,
                           const LatencyHistogram& h) {
  const std::string family = std::string(base) + "_seconds";
  out->append("# TYPE ").append(family).append(" histogram\n");
  for (const LeBucket& b : kLeLadder) {
    out->append(family)
        .append("_bucket{le=\"")
        .append(b.label)
        .append("\"} ")
        .append(std::to_string(h.CumulativeCountLe(b.ns)))
        .push_back('\n');
  }
  out->append(family).append("_bucket{le=\"+Inf\"} ").append(
      std::to_string(h.count()));
  out->push_back('\n');
  AppendSample(out, family + "_sum", static_cast<double>(h.sum_ns()) / 1e9);
  AppendIntSample(out, family + "_count", h.count());

  const std::string qfamily = std::string(base) + "_quantile_seconds";
  out->append("# TYPE ").append(qfamily).append(" gauge\n");
  constexpr struct {
    const char* label;
    double p;
  } kQuantiles[] = {
      {"0.5", 50.0}, {"0.9", 90.0}, {"0.95", 95.0}, {"0.99", 99.0}};
  for (const auto& q : kQuantiles) {
    AppendSample(out,
                 qfamily + "{quantile=\"" + q.label + "\"}",
                 static_cast<double>(h.PercentileNs(q.p)) / 1e9);
  }
}

void AppendCounter(std::string* out, std::string_view series, int64_t value) {
  out->append("# TYPE ").append(series).append(" counter\n");
  AppendIntSample(out, series, value);
}

void AppendGauge(std::string* out, std::string_view series, double value) {
  out->append("# TYPE ").append(series).append(" gauge\n");
  AppendSample(out, series, value);
}

void AppendJsonKV(std::string* out, std::string_view key,
                  std::string_view raw_value, bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(raw_value);
}

void AppendJsonString(std::string* out, std::string_view key,
                      std::string_view value, bool* first) {
  std::string quoted = "\"";
  JsonEscape(value, &quoted);
  quoted.push_back('"');
  AppendJsonKV(out, key, quoted, first);
}

void AppendSlowEntryJson(std::string* out, const SlowLogEntry& e) {
  out->push_back('{');
  bool first = true;
  AppendJsonString(out, "request_id", e.request_id, &first);
  AppendJsonString(out, "algorithm", e.algorithm, &first);
  AppendJsonString(out, "query", e.query_summary, &first);
  AppendJsonString(out, "status", e.status, &first);
  AppendJsonKV(out, "cached", e.cached ? "true" : "false", &first);
  if (e.segments >= 0) {
    AppendJsonKV(out, "segments", std::to_string(e.segments), &first);
  }
  std::string num;
  JsonAppendDouble(e.total_ms, &num);
  AppendJsonKV(out, "total_ms", num, &first);
  num.clear();
  JsonAppendDouble(e.queue_wait_ms, &num);
  AppendJsonKV(out, "queue_wait_ms", num, &first);
  num.clear();
  JsonAppendDouble(e.execute_ms, &num);
  AppendJsonKV(out, "execute_ms", num, &first);
  AppendJsonKV(out, "completed_unix_ms", std::to_string(e.completed_unix_ms),
               &first);
  // QueryStats::ToJson already emits a complete object (phase breakdown
  // under "phase_ms") — splice it in verbatim.
  AppendJsonKV(out, "stats", e.has_stats ? e.stats.ToJson() : "null", &first);
  if (!first) out->push_back(',');
  out->append("\"spans\":[");
  for (size_t i = 0; i < e.spans.size(); ++i) {
    const TraceEvent& ev = e.spans[i];
    if (i > 0) out->push_back(',');
    out->append("{\"name\":\"");
    JsonEscape(ev.name, out);
    out->append("\",\"start_us\":");
    JsonAppendDouble(static_cast<double>(ev.start_ns) / 1e3, out);
    out->append(",\"dur_us\":");
    JsonAppendDouble(static_cast<double>(ev.dur_ns) / 1e3, out);
    out->append(",\"depth\":");
    out->append(std::to_string(ev.depth));
    out->push_back('}');
  }
  out->append("]}");
}

int64_t UnixNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Pending connections the kernel queues on the admin listener.
constexpr int kListenBacklog = 16;
/// Concurrent admin connections; scrapers beyond this are refused.
constexpr size_t kMaxConnections = 32;
/// A connection must deliver a complete request within this window.
constexpr double kReadTimeoutMs = 5000.0;

}  // namespace

// ---------------------------------------------------------------------------
// AdminPlane

AdminPlane::AdminPlane(UotsServer* server, const AdminOptions& opts)
    : server_(server),
      opts_(opts),
      slowlog_(kSlowLogRecent, kSlowLogSlowest) {}

AdminPlane::~AdminPlane() {
  // Raw closes only: the loop may already be destroyed at this point (the
  // server calls Shutdown() from the loop while it is still alive).
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

Status AdminPlane::Start() {
  Result<TcpListener> listener = ListenTcp(
      opts_.bind_address, static_cast<uint16_t>(opts_.port), kListenBacklog);
  if (!listener.ok()) {
    return Status(listener.status().code(),
                  "admin " + listener.status().message());
  }
  listen_fd_ = listener->fd;
  port_ = listener->port;
  return server_->loop().AddFd(listen_fd_, EPOLLIN,
                               [this](uint32_t) { OnAcceptReady(); });
}

void AdminPlane::Shutdown() {
  EventLoop& loop = server_->loop();
  if (listen_fd_ >= 0) {
    loop.RemoveFd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
}

void AdminPlane::OnAcceptReady() {
  for (;;) {
    const int fd = AcceptTcp(listen_fd_);
    if (fd < 0) return;
    if (conns_.size() >= kMaxConnections) {
      ::close(fd);
      continue;
    }
    const uint64_t id = next_conn_id_++;
    AdminConn& conn = conns_[id];
    conn.fd = fd;
    Status st = server_->loop().AddFd(
        fd, EPOLLIN, [this, id](uint32_t events) { OnConnEvent(id, events); });
    if (!st.ok()) {
      ::close(fd);
      conns_.erase(id);
      continue;
    }
    conn.read_timer =
        server_->loop().AddTimerAfterMs(kReadTimeoutMs, [this, id] {
          auto it = conns_.find(id);
          if (it == conns_.end()) return;
          it->second.read_timer = TimerHeap::kInvalidTimer;
          CloseConn(id);
        });
  }
}

void AdminPlane::OnConnEvent(uint64_t id, uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  AdminConn* conn = &it->second;

  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConn(id);
    return;
  }
  if (events & EPOLLOUT) {
    FlushConn(id, conn);
    return;
  }
  if (!(events & EPOLLIN) || !conn->out.empty()) return;
  const IoResult read = ReadAvailable(conn->fd, conn->parser);
  // Parse what was read before acting on end of stream: a client may
  // half-close right after sending its request.
  HttpRequest req;
  switch (conn->parser.Poll(&req)) {
    case HttpRequestParser::Next::kNeedMore:
      if (read == IoResult::kClosed) CloseConn(id);
      return;
    case HttpRequestParser::Next::kBad:
      QueueResponse(id, conn,
                    EncodeHttpResponse(400, "text/plain",
                                       "malformed request\n"));
      return;
    case HttpRequestParser::Next::kTooLarge:
      QueueResponse(id, conn,
                    EncodeHttpResponse(431, "text/plain",
                                       "header block too large\n"));
      return;
    case HttpRequestParser::Next::kRequest:
      QueueResponse(id, conn, Dispatch(req));
      return;
  }
}

void AdminPlane::QueueResponse(uint64_t id, AdminConn* conn,
                               std::string response) {
  conn->out = std::move(response);
  conn->out_offset = 0;
  if (conn->read_timer != TimerHeap::kInvalidTimer) {
    server_->loop().CancelTimer(conn->read_timer);
    conn->read_timer = TimerHeap::kInvalidTimer;
  }
  // Stop reading (one request per connection) and flush what the socket
  // will take; the rest rides EPOLLOUT.
  FlushConn(id, conn);
}

void AdminPlane::FlushConn(uint64_t id, AdminConn* conn) {
  if (WriteAvailable(conn->fd, conn->out, &conn->out_offset) ==
          IoResult::kOk &&
      conn->out_offset < conn->out.size()) {
    (void)server_->loop().SetEvents(conn->fd, EPOLLOUT);
    return;
  }
  // Fully written (HTTP/1.0 close semantics) or the peer is gone.
  CloseConn(id);
}

void AdminPlane::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  AdminConn& conn = it->second;
  if (conn.read_timer != TimerHeap::kInvalidTimer) {
    server_->loop().CancelTimer(conn.read_timer);
  }
  if (conn.fd >= 0) {
    server_->loop().RemoveFd(conn.fd);
    ::close(conn.fd);
  }
  conns_.erase(it);
}

std::string AdminPlane::Dispatch(const HttpRequest& req) {
  const bool is_get = req.method == "GET" || req.method == "HEAD";
  if (req.path == "/metrics") {
    if (!is_get) {
      return EncodeHttpResponse(405, "text/plain", "use GET\n");
    }
    return EncodeHttpResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                              RenderMetrics());
  }
  if (req.path == "/statusz") {
    if (!is_get) return EncodeHttpResponse(405, "text/plain", "use GET\n");
    return EncodeHttpResponse(200, "application/json", RenderStatusz());
  }
  if (req.path == "/healthz") {
    if (!is_get) return EncodeHttpResponse(405, "text/plain", "use GET\n");
    int status = 200;
    std::string body = RenderHealthz(&status);
    return EncodeHttpResponse(status, "text/plain", body);
  }
  if (req.path == "/slowqueries") {
    if (!is_get) return EncodeHttpResponse(405, "text/plain", "use GET\n");
    return EncodeHttpResponse(200, "application/json", RenderSlowQueries());
  }
  if (req.path == "/tracing") {
    if (req.method == "POST") {
      const std::string arg = req.QueryParam("sample");
      int every = 0;
      if (arg.empty() ||
          arg.find_first_not_of("0123456789") != std::string::npos ||
          std::from_chars(arg.data(), arg.data() + arg.size(), every).ec !=
              std::errc()) {
        return EncodeHttpResponse(400, "text/plain",
                                  "POST /tracing?sample=N (0 <= N <= "
                                  "2147483647; N = 0 disables sampling)\n");
      }
      set_trace_sample_every(every);
    } else if (!is_get) {
      return EncodeHttpResponse(405, "text/plain", "use GET or POST\n");
    }
    std::string body = "{\"sample_every\":";
    body += std::to_string(trace_sample_every());
    body += ",\"trace_compiled_in\":";
    body += UOTS_TRACE ? "true" : "false";
    body += "}\n";
    return EncodeHttpResponse(200, "application/json", body);
  }
  if (req.path == "/compact") {
    if (req.method != "POST") {
      return EncodeHttpResponse(405, "text/plain", "use POST\n");
    }
    // Runs on the loop thread (the admin plane shares the server's loop),
    // which is exactly where TriggerCompaction must be called.
    const Status st = server_->TriggerCompaction();
    if (!st.ok()) {
      const int code = st.code() == StatusCode::kUnavailable ? 409 : 400;
      return EncodeHttpResponse(code, "text/plain", st.ToString() + "\n");
    }
    std::string body = "{\"compacting\":true,\"sealed_trajectories\":";
    body += std::to_string(server_->ingestor().delta_trajectories());
    body += "}\n";
    return EncodeHttpResponse(202, "application/json", body);
  }
  return EncodeHttpResponse(404, "text/plain", "not found\n");
}

std::string AdminPlane::RenderHealthz(int* status) const {
  if (server_->draining()) {
    *status = 503;
    return "draining\n";
  }
  *status = 200;
  return "ok\n";
}

std::string AdminPlane::RenderMetrics() const {
  std::string out;
  out.reserve(8192);
  // Every series is read from the object that owns it, at render time.
  const ServerHistograms& h = server_->histograms();
  for (const ServerHistogramField& f : ServerHistogramFields()) {
    AppendHistogramFamily(&out, f.family, h.*f.member);
  }
  const ServerCounters& c = server_->counters();
  for (const ServerCounterField& f : ServerCounterFields()) {
    AppendCounter(&out, f.series, c.*f.member);
  }
  AppendCounter(&out, "uots_server_slowlog_entries_total", slowlog_.added());
  UotsService& service = server_->service();
  AppendCounter(&out, "uots_server_oracle_lookups_total",
                service.oracle_lookups());
  AppendCounter(&out, "uots_server_oracle_pruned_candidates_total",
                service.oracle_pruned_candidates());
  if (const ResultCache* cache = service.result_cache()) {
    const ResultCache::Stats s = cache->stats();
    AppendCounter(&out, "uots_server_cache_hits_total", s.hits);
    AppendCounter(&out, "uots_server_cache_misses_total", s.misses);
    AppendCounter(&out, "uots_server_cache_evictions_total",
                  s.evictions + s.expired);
    AppendGauge(&out, "uots_server_cache_bytes", static_cast<double>(s.bytes));
  }
  const Ingestor& ingest = server_->ingestor();
  AppendCounter(&out, "uots_server_ingest_rejected_total",
                ingest.rejected_total());
  AppendCounter(&out, "uots_server_ingest_batches_total",
                ingest.batches_total());
  AppendCounter(&out, "uots_server_ingest_generation_total",
                static_cast<int64_t>(ingest.generation()));
  AppendGauge(&out, "uots_server_ingest_delta_trajectories",
              static_cast<double>(ingest.delta_trajectories()));
  AppendGauge(&out, "uots_server_ingest_delta_bytes",
              static_cast<double>(ingest.delta_bytes()));

  AppendGauge(&out, "uots_server_uptime_seconds",
              static_cast<double>(EventLoop::NowNs() -
                                  server_->start_steady_ns()) /
                  1e9);
  AppendGauge(&out, "uots_server_open_connections",
              static_cast<double>(server_->open_connections()));
  AppendGauge(&out, "uots_server_admin_connections",
              static_cast<double>(conns_.size()));
  AppendGauge(&out, "uots_server_inflight_requests",
              static_cast<double>(server_->loop_inflight()));
  AppendGauge(&out, "uots_server_executor_queue_depth",
              static_cast<double>(service.inflight()));
  AppendGauge(&out, "uots_server_draining",
              server_->draining() ? 1.0 : 0.0);
  AppendGauge(&out, "uots_server_trace_sample_every",
              static_cast<double>(trace_sample_every()));
  return out;
}

std::string AdminPlane::RenderStatusz() const {
  const TrajectoryDatabase& db = server_->db();
  const MemoryBreakdown mem = db.Memory();

  JsonValue root = JsonValue::Object();
  root.Set("uptime_seconds",
           JsonValue::Number(static_cast<double>(EventLoop::NowNs() -
                                                 server_->start_steady_ns()) /
                             1e9));
  root.Set("start_unix_ms", JsonValue::Int(server_->start_unix_ms()));

  JsonValue build = JsonValue::Object();
  build.Set("compiler", JsonValue::Str(
#if defined(__clang__)
                            "clang " __clang_version__
#elif defined(__GNUC__)
                            "gcc " __VERSION__
#else
                            "unknown"
#endif
                            ));
  build.Set("build_date", JsonValue::Str(__DATE__ " " __TIME__));
  build.Set("trace_compiled_in", JsonValue::Bool(UOTS_TRACE != 0));
#ifdef NDEBUG
  build.Set("optimized", JsonValue::Bool(true));
#else
  build.Set("optimized", JsonValue::Bool(false));
#endif
  root.Set("build", std::move(build));

  JsonValue dataset = JsonValue::Object();
  {
    char hex[19];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(db.fingerprint()));
    dataset.Set("fingerprint", JsonValue::Str(hex));
  }
  dataset.Set("source", JsonValue::Str(server_->options().dataset_source));
  dataset.Set("vertices",
              JsonValue::Int(static_cast<int64_t>(db.network().NumVertices())));
  dataset.Set("edges",
              JsonValue::Int(static_cast<int64_t>(db.network().NumEdges())));
  dataset.Set("trajectories",
              JsonValue::Int(static_cast<int64_t>(db.store().size())));
  dataset.Set("vocabulary_terms",
              JsonValue::Int(static_cast<int64_t>(db.vocabulary().size())));
  dataset.Set("has_oracle", JsonValue::Bool(db.oracle() != nullptr));
  dataset.Set("heap_bytes",
              JsonValue::Int(static_cast<int64_t>(mem.heap_bytes)));
  dataset.Set("mmap_bytes",
              JsonValue::Int(static_cast<int64_t>(mem.mmap_bytes)));
  const Ingestor& ing = server_->ingestor();
  dataset.Set("delta_trajectories",
              JsonValue::Int(static_cast<int64_t>(ing.delta_trajectories())));
  dataset.Set("delta_bytes",
              JsonValue::Int(static_cast<int64_t>(ing.delta_bytes())));
  dataset.Set("generation",
              JsonValue::Int(static_cast<int64_t>(ing.generation())));
  dataset.Set("last_compaction_ms",
              JsonValue::Number(server_->last_compaction_ms()));
  dataset.Set("compacting", JsonValue::Bool(server_->compacting()));
  root.Set("dataset", std::move(dataset));

  JsonValue srv = JsonValue::Object();
  srv.Set("port", JsonValue::Int(server_->port()));
  srv.Set("admin_port", JsonValue::Int(port_));
  srv.Set("open_connections",
          JsonValue::Int(static_cast<int64_t>(server_->open_connections())));
  srv.Set("admin_connections",
          JsonValue::Int(static_cast<int64_t>(conns_.size())));
  srv.Set("inflight_requests",
          JsonValue::Int(static_cast<int64_t>(server_->loop_inflight())));
  srv.Set("executor_queue_depth",
          JsonValue::Int(static_cast<int64_t>(server_->service().inflight())));
  srv.Set("executor_threads",
          JsonValue::Int(static_cast<int64_t>(server_->service().num_threads())));
  srv.Set("max_inflight",
          JsonValue::Int(static_cast<int64_t>(
              server_->service().options().max_inflight)));
  srv.Set("result_cache_enabled",
          JsonValue::Bool(server_->service().result_cache() != nullptr));
  srv.Set("draining", JsonValue::Bool(server_->draining()));
  srv.Set("trace_sample_every", JsonValue::Int(trace_sample_every()));
  root.Set("server", std::move(srv));

  const ServerCounters& c = server_->counters();
  JsonValue counters = JsonValue::Object();
  for (const ServerCounterField& f : ServerCounterFields()) {
    counters.Set(f.key, JsonValue::Int(c.*f.member));
  }
  root.Set("counters", std::move(counters));

  JsonValue slow = JsonValue::Object();
  slow.Set("added", JsonValue::Int(slowlog_.added()));
  slow.Set("recent", JsonValue::Int(static_cast<int64_t>(
                         slowlog_.recent().size())));
  slow.Set("slowest", JsonValue::Int(static_cast<int64_t>(
                          slowlog_.slowest().size())));
  root.Set("slowlog", std::move(slow));

  std::string body = root.Serialize();
  body.push_back('\n');
  return body;
}

std::string AdminPlane::RenderSlowQueries() const {
  std::string out = "{\"added\":";
  out += std::to_string(slowlog_.added());
  out += ",\"slowest\":[";
  bool first = true;
  for (const SlowLogEntry& e : slowlog_.slowest()) {
    if (!first) out.push_back(',');
    first = false;
    AppendSlowEntryJson(&out, e);
  }
  out += "],\"recent\":[";
  first = true;
  for (const SlowLogEntry& e : slowlog_.recent()) {
    if (!first) out.push_back(',');
    first = false;
    AppendSlowEntryJson(&out, e);
  }
  out += "]}\n";
  return out;
}

int64_t SlowLogNowUnixMs() { return UnixNowMs(); }

}  // namespace uots
