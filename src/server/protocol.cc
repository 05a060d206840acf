#include "server/protocol.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>

namespace uots {

namespace {

/// Header is a 4-byte big-endian unsigned payload length.
void PutHeader(uint32_t n, char out[kFrameHeaderBytes]) {
  out[0] = static_cast<char>((n >> 24) & 0xFF);
  out[1] = static_cast<char>((n >> 16) & 0xFF);
  out[2] = static_cast<char>((n >> 8) & 0xFF);
  out[3] = static_cast<char>(n & 0xFF);
}

uint32_t GetHeader(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return (uint32_t{u[0]} << 24) | (uint32_t{u[1]} << 16) |
         (uint32_t{u[2]} << 8) | uint32_t{u[3]};
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Reads an integral field; fails on non-numbers and non-integers.
Status ReadInt(const JsonValue& v, const char* what, int64_t* out) {
  if (!v.is_number()) {
    return Status::InvalidArgument(std::string(what) + " must be a number");
  }
  const double d = v.number_value();
  if (std::floor(d) != d || std::abs(d) > 9.007199254740992e15) {
    return Status::InvalidArgument(std::string(what) + " must be an integer");
  }
  *out = static_cast<int64_t>(d);
  return Status::OK();
}

// --- request envelope -------------------------------------------------------
//
// Queries and trips share every request field but their kind's own; these
// write and read that envelope once for both.

/// Starts a query or trip request with the envelope fields that precede the
/// kind's own: id, the type tag (none for queries), request_id, locations,
/// keywords, lambda and k. Field order is wire contract.
template <typename Request>
JsonValue OpenRequest(const Request& req, const char* type) {
  JsonValue o = JsonValue::Object();
  o.Set("id", JsonValue::Int(req.id));
  if (type != nullptr) o.Set("type", JsonValue::Str(type));
  if (!req.request_id.empty()) {
    o.Set("request_id", JsonValue::Str(req.request_id));
  }
  JsonValue locs = JsonValue::Array();
  for (VertexId v : req.query.locations) {
    locs.Append(JsonValue::Int(static_cast<int64_t>(v)));
  }
  o.Set("locations", std::move(locs));
  JsonValue kws = JsonValue::Array();
  for (TermId t : req.query.keywords.terms()) {
    kws.Append(JsonValue::Int(static_cast<int64_t>(t)));
  }
  o.Set("keywords", std::move(kws));
  o.Set("lambda", JsonValue::Number(req.query.lambda));
  o.Set("k", JsonValue::Int(req.query.k));
  return o;
}

/// Ends a request with the envelope fields that follow the kind's own
/// (deadline_ms, cache) and serializes it.
std::string CloseRequest(const RequestEnvelope& req, JsonValue o) {
  if (req.deadline_ms > 0.0) {
    o.Set("deadline_ms", JsonValue::Number(req.deadline_ms));
  }
  if (req.cache == CacheMode::kBypass) {
    o.Set("cache", JsonValue::Str("bypass"));
  }
  return o.Serialize();
}

/// Reads the optional "id" and "request_id" every request kind carries.
Status ReadRequestIds(const JsonValue& o, int64_t* id,
                      std::string* request_id) {
  if (const JsonValue* v = o.Find("id")) {
    UOTS_RETURN_NOT_OK(ReadInt(*v, "id", id));
  }
  if (const JsonValue* rid = o.Find("request_id")) {
    if (!rid->is_string()) {
      return Status::InvalidArgument("request_id must be a string");
    }
    if (rid->string_value().size() > kMaxRequestIdBytes) {
      return Status::InvalidArgument(
          "request_id too long (max " + std::to_string(kMaxRequestIdBytes) +
          " bytes)");
    }
    *request_id = rid->string_value();
  }
  return Status::OK();
}

/// Strictly reads a query or trip request's envelope: the ids, 1 to
/// `max_locations` locations, keywords, lambda, k, deadline_ms and cache.
/// The kind's parser reads its own fields afterwards.
template <typename Request>
Status ReadRequestEnvelope(const JsonValue& o, size_t max_locations,
                           Request* req) {
  if (!o.is_object()) return Status::InvalidArgument("request must be an object");
  UOTS_RETURN_NOT_OK(ReadRequestIds(o, &req->id, &req->request_id));
  const JsonValue* locs = o.Find("locations");
  if (locs == nullptr || !locs->is_array()) {
    return Status::InvalidArgument("locations must be an array");
  }
  if (locs->array_items().empty()) {
    return Status::InvalidArgument("locations must not be empty");
  }
  if (locs->array_items().size() > max_locations) {
    return Status::InvalidArgument("too many locations (max " +
                                   std::to_string(max_locations) + ")");
  }
  req->query.locations.reserve(locs->array_items().size());
  for (const JsonValue& v : locs->array_items()) {
    int64_t id;
    UOTS_RETURN_NOT_OK(ReadInt(v, "location", &id));
    if (id < 0 || id > UINT32_MAX) {
      return Status::InvalidArgument("location out of range");
    }
    req->query.locations.push_back(static_cast<VertexId>(id));
  }
  std::vector<TermId> terms;
  if (const JsonValue* kws = o.Find("keywords")) {
    if (!kws->is_array()) {
      return Status::InvalidArgument("keywords must be an array");
    }
    for (const JsonValue& v : kws->array_items()) {
      int64_t id;
      UOTS_RETURN_NOT_OK(ReadInt(v, "keyword", &id));
      if (id < 0 || id > UINT32_MAX) {
        return Status::InvalidArgument("keyword out of range");
      }
      terms.push_back(static_cast<TermId>(id));
    }
  }
  req->query.keywords = KeywordSet(std::move(terms));
  if (const JsonValue* lambda = o.Find("lambda")) {
    if (!lambda->is_number()) {
      return Status::InvalidArgument("lambda must be a number");
    }
    req->query.lambda = lambda->number_value();
  }
  if (const JsonValue* k = o.Find("k")) {
    int64_t kk;
    UOTS_RETURN_NOT_OK(ReadInt(*k, "k", &kk));
    if (kk < 0 || kk > INT32_MAX) return Status::InvalidArgument("k out of range");
    req->query.k = static_cast<int>(kk);
  }
  if (const JsonValue* dl = o.Find("deadline_ms")) {
    if (!dl->is_number() || dl->number_value() < 0.0 ||
        dl->number_value() > kMaxDeadlineMs) {
      return Status::InvalidArgument(
          "deadline_ms must be a number in [0, 1e12]");
    }
    req->deadline_ms = dl->number_value();
  }
  if (const JsonValue* cache = o.Find("cache")) {
    if (!cache->is_string()) {
      return Status::InvalidArgument("cache must be a string");
    }
    const std::string_view mode = cache->string_value();
    if (mode == "bypass") {
      req->cache = CacheMode::kBypass;
    } else if (mode != "default") {
      return Status::InvalidArgument("cache must be \"default\" or \"bypass\"");
    }
  }
  return Status::OK();
}

// --- response envelope ------------------------------------------------------

/// Parses `json` as a reply object and reads the head every reply kind
/// carries (id, request_id, status, error) into `resp`. Returns the parsed
/// object for the kind's own fields.
Result<JsonValue> ReadResponseHead(std::string_view json, ResponseHead* resp) {
  Result<JsonValue> o = ParseJson(json);
  if (!o.ok()) return o;
  if (!o->is_object()) {
    return Status::InvalidArgument("response must be an object");
  }
  if (const JsonValue* id = o->Find("id")) {
    UOTS_RETURN_NOT_OK(ReadInt(*id, "id", &resp->id));
  }
  if (const JsonValue* rid = o->Find("request_id")) {
    resp->request_id = rid->StringOr("");
  }
  const JsonValue* status = o->Find("status");
  if (status == nullptr || !status->is_string()) {
    return Status::InvalidArgument("response missing status");
  }
  resp->status = ParseResponseStatus(status->string_value());
  if (const JsonValue* err = o->Find("error")) {
    resp->error = err->StringOr("");
  }
  return o;
}

/// Reads a query or trip reply's envelope: the head, the cache flag, every
/// counter QueryStats writes (QueryStatsIntFields) and the server timings.
/// Returns the parsed object for the kind's body.
Result<JsonValue> ReadResponseEnvelope(std::string_view json,
                                       ResponseEnvelope* resp) {
  Result<JsonValue> o = ReadResponseHead(json, resp);
  if (!o.ok()) return o;
  if (const JsonValue* cached = o->Find("cached")) {
    resp->cached = cached->BoolOr(false);
  }
  const JsonValue* stats = o->Find("stats");
  if (stats != nullptr && stats->is_object()) {
    resp->has_stats = true;
    for (const QueryStatsField& f : QueryStatsIntFields()) {
      const JsonValue* v = stats->Find(f.key);
      resp->stats.*f.member =
          v != nullptr ? static_cast<int64_t>(v->NumberOr(0)) : 0;
    }
    if (const JsonValue* ms = stats->Find("elapsed_ms")) {
      resp->stats.elapsed_ms = ms->NumberOr(0.0);
    }
  }
  const JsonValue* server = o->Find("server");
  if (server != nullptr && server->is_object()) {
    if (const JsonValue* v = server->Find("queue_wait_ms")) {
      resp->queue_wait_ms = v->NumberOr(0.0);
    }
    if (const JsonValue* v = server->Find("execute_ms")) {
      resp->execute_ms = v->NumberOr(0.0);
    }
  }
  return o;
}

// --- direct response writer --------------------------------------------------
//
// Responses are appended straight into the output string. Field order and
// number rendering are wire contract (protocol_test pins the bytes).

/// Appends `key` (the field's separator, name and colon) and `v`. Integers
/// are passed as doubles too, as JsonValue::Int does, so an id of 1e15 or
/// more renders the way %.16g/%.17g would.
void AppendNumber(const char* key, double v, std::string* out) {
  out->append(key);
  JsonAppendDouble(v, out);
}

void AppendString(const char* key, std::string_view s, std::string* out) {
  out->append(key).push_back('"');
  JsonEscape(s, out);
  out->push_back('"');
}

/// Opens a response with the fields every reply kind starts with:
/// {"id":..,"request_id":"..","status":"..". A non-ok status then gets the
/// error form ("error", "retryable") and the closing brace, and the call
/// returns false; an ok status leaves the object open for the kind's body.
bool AppendResponseHead(const ResponseHead& head, std::string* out) {
  AppendNumber("{\"id\":", static_cast<double>(head.id), out);
  if (!head.request_id.empty()) {
    AppendString(",\"request_id\":", head.request_id, out);
  }
  AppendString(",\"status\":", ToString(head.status), out);
  if (head.ok()) return true;
  if (!head.error.empty()) AppendString(",\"error\":", head.error, out);
  out->append(head.retryable() ? ",\"retryable\":true}"
                               : ",\"retryable\":false}");
  return false;
}

/// Closes an ok query or trip reply: the cache flag, the engine stats and
/// the server timings.
void AppendResponseTail(const ResponseEnvelope& resp, std::string* out) {
  if (resp.cached) out->append(",\"cached\":true");
  if (resp.has_stats) {
    out->append(",\"stats\":");
    resp.stats.AppendJson(out);
  }
  AppendNumber(",\"server\":{\"queue_wait_ms\":", resp.queue_wait_ms, out);
  AppendNumber(",\"execute_ms\":", resp.execute_ms, out);
  out->append("}}");
}

/// Room for the head, stats and tail of an ok reply, so a typical response
/// is written without reallocating.
constexpr size_t kResponseOverheadBytes = 768;

}  // namespace

void AppendFrame(std::string_view payload, std::string* out) {
  char header[kFrameHeaderBytes];
  PutHeader(static_cast<uint32_t>(payload.size()), header);
  out->append(header, kFrameHeaderBytes);
  out->append(payload.data(), payload.size());
}

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(payload, &out);
  return out;
}

void FrameDecoder::Append(const char* data, size_t n) {
  Compact();
  buf_.append(data, n);
}

void FrameDecoder::Compact() {
  // Reclaim consumed prefix once it dominates the buffer; amortized O(1).
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
}

FrameDecoder::Next FrameDecoder::Poll(std::string* payload,
                                      size_t* oversized_bytes) {
  // Finish discarding an oversized payload before looking for a header.
  if (skip_remaining_ > 0) {
    const size_t have = buf_.size() - consumed_;
    const size_t drop = std::min(skip_remaining_, have);
    consumed_ += drop;
    skip_remaining_ -= drop;
    if (skip_remaining_ > 0) return Next::kNeedMore;
  }
  if (buf_.size() - consumed_ < kFrameHeaderBytes) return Next::kNeedMore;
  const size_t len = GetHeader(buf_.data() + consumed_);
  if (len > max_frame_bytes_) {
    consumed_ += kFrameHeaderBytes;
    const size_t have = buf_.size() - consumed_;
    const size_t drop = std::min<size_t>(len, have);
    consumed_ += drop;
    skip_remaining_ = len - drop;
    if (oversized_bytes != nullptr) *oversized_bytes = len;
    return Next::kOversized;
  }
  if (buf_.size() - consumed_ < kFrameHeaderBytes + len) return Next::kNeedMore;
  payload->assign(buf_, consumed_ + kFrameHeaderBytes, len);
  consumed_ += kFrameHeaderBytes + len;
  return Next::kFrame;
}

const char* ToString(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kParseError:
      return "parse_error";
    case ResponseStatus::kInvalidArgument:
      return "invalid_argument";
    case ResponseStatus::kOverloaded:
      return "overloaded";
    case ResponseStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ResponseStatus::kShuttingDown:
      return "shutting_down";
    case ResponseStatus::kInternal:
      return "internal";
  }
  return "internal";
}

ResponseStatus ParseResponseStatus(std::string_view name) {
  for (ResponseStatus s :
       {ResponseStatus::kOk, ResponseStatus::kParseError,
        ResponseStatus::kInvalidArgument, ResponseStatus::kOverloaded,
        ResponseStatus::kDeadlineExceeded, ResponseStatus::kShuttingDown,
        ResponseStatus::kInternal}) {
    if (name == ToString(s)) return s;
  }
  return ResponseStatus::kInternal;
}

bool IsRetryable(ResponseStatus s) {
  return s == ResponseStatus::kOverloaded || s == ResponseStatus::kShuttingDown;
}

ResponseStatus FromStatus(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk:
      return ResponseStatus::kOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return ResponseStatus::kInvalidArgument;
    case StatusCode::kDeadlineExceeded:
      return ResponseStatus::kDeadlineExceeded;
    case StatusCode::kUnavailable:
      return ResponseStatus::kOverloaded;
    default:
      return ResponseStatus::kInternal;
  }
}

Result<AlgorithmKind> ParseAlgorithmKind(std::string_view name) {
  for (AlgorithmKind k :
       {AlgorithmKind::kBruteForce, AlgorithmKind::kTextFirst,
        AlgorithmKind::kUots, AlgorithmKind::kUotsNoHeuristic,
        AlgorithmKind::kUotsSequential, AlgorithmKind::kEuclidean}) {
    if (EqualsIgnoreCase(name, ToString(k))) return k;
  }
  return Status::NotFound("unknown algorithm: " + std::string(name));
}

std::string EncodeQueryRequest(const QueryRequest& req) {
  JsonValue o = OpenRequest(req, nullptr);
  if (req.has_algorithm) {
    o.Set("algorithm", JsonValue::Str(ToString(req.algorithm)));
  }
  return CloseRequest(req, std::move(o));
}

Result<QueryRequest> ParseQueryRequest(std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  return ParseQueryRequest(*parsed);
}

Result<QueryRequest> ParseQueryRequest(const JsonValue& o) {
  QueryRequest req;
  UOTS_RETURN_NOT_OK(ReadRequestEnvelope(o, kMaxQueryLocations, &req));
  if (const JsonValue* algo = o.Find("algorithm")) {
    if (!algo->is_string()) {
      return Status::InvalidArgument("algorithm must be a string");
    }
    Result<AlgorithmKind> kind = ParseAlgorithmKind(algo->string_value());
    if (!kind.ok()) return kind.status();
    req.algorithm = *kind;
    req.has_algorithm = true;
  }
  return req;
}

RequestType RequestTypeOf(const JsonValue& o) {
  const JsonValue* type = o.Find("type");
  if (type == nullptr) return RequestType::kQuery;
  if (!type->is_string()) return RequestType::kUnknown;
  const std::string_view name = type->string_value();
  if (name == "query") return RequestType::kQuery;
  if (name == "ingest") return RequestType::kIngest;
  if (name == "trip") return RequestType::kTrip;
  return RequestType::kUnknown;
}

std::string EncodeIngestRequest(const IngestRequest& req) {
  JsonValue o = JsonValue::Object();
  o.Set("id", JsonValue::Int(req.id));
  o.Set("type", JsonValue::Str("ingest"));
  if (!req.request_id.empty()) {
    o.Set("request_id", JsonValue::Str(req.request_id));
  }
  JsonValue trips = JsonValue::Array();
  for (const Trajectory& t : req.trajectories) {
    JsonValue trip = JsonValue::Object();
    JsonValue samples = JsonValue::Array();
    for (const Sample& s : t.samples) {
      JsonValue pair = JsonValue::Array();
      pair.Append(JsonValue::Int(static_cast<int64_t>(s.vertex)));
      pair.Append(JsonValue::Int(s.time_s));
      samples.Append(std::move(pair));
    }
    trip.Set("samples", std::move(samples));
    JsonValue kws = JsonValue::Array();
    for (TermId k : t.keywords.terms()) {
      kws.Append(JsonValue::Int(static_cast<int64_t>(k)));
    }
    trip.Set("keywords", std::move(kws));
    trips.Append(std::move(trip));
  }
  o.Set("trajectories", std::move(trips));
  return o.Serialize();
}

Result<IngestRequest> ParseIngestRequest(const JsonValue& o) {
  if (!o.is_object()) {
    return Status::InvalidArgument("request must be an object");
  }
  IngestRequest req;
  UOTS_RETURN_NOT_OK(ReadRequestIds(o, &req.id, &req.request_id));
  const JsonValue* trips = o.Find("trajectories");
  if (trips == nullptr || !trips->is_array()) {
    return Status::InvalidArgument("trajectories must be an array");
  }
  if (trips->array_items().empty()) {
    return Status::InvalidArgument("trajectories must not be empty");
  }
  if (trips->array_items().size() > kMaxIngestBatchTrajectories) {
    return Status::InvalidArgument(
        "too many trajectories in one batch (max " +
        std::to_string(kMaxIngestBatchTrajectories) + ")");
  }
  req.trajectories.reserve(trips->array_items().size());
  for (const JsonValue& trip : trips->array_items()) {
    if (!trip.is_object()) {
      return Status::InvalidArgument("trajectory must be an object");
    }
    Trajectory t;
    const JsonValue* samples = trip.Find("samples");
    if (samples == nullptr || !samples->is_array()) {
      return Status::InvalidArgument("trajectory samples must be an array");
    }
    if (samples->array_items().size() > kMaxIngestSamplesPerTrajectory) {
      return Status::InvalidArgument(
          "too many samples (max " +
          std::to_string(kMaxIngestSamplesPerTrajectory) + ")");
    }
    t.samples.reserve(samples->array_items().size());
    for (const JsonValue& pair : samples->array_items()) {
      if (!pair.is_array() || pair.array_items().size() != 2) {
        return Status::InvalidArgument(
            "sample must be a [vertex, time_s] pair");
      }
      int64_t vertex, time_s;
      UOTS_RETURN_NOT_OK(ReadInt(pair.array_items()[0], "vertex", &vertex));
      UOTS_RETURN_NOT_OK(ReadInt(pair.array_items()[1], "time_s", &time_s));
      if (vertex < 0 || vertex > UINT32_MAX) {
        return Status::InvalidArgument("sample vertex out of range");
      }
      if (time_s < 0 || time_s >= kSecondsPerDay) {
        return Status::InvalidArgument(
            "sample time_s must be in [0, 86400)");
      }
      t.samples.push_back(Sample{static_cast<VertexId>(vertex),
                                 static_cast<int32_t>(time_s)});
    }
    std::vector<TermId> terms;
    if (const JsonValue* kws = trip.Find("keywords")) {
      if (!kws->is_array()) {
        return Status::InvalidArgument("trajectory keywords must be an array");
      }
      if (kws->array_items().size() > kMaxIngestKeywordsPerTrajectory) {
        return Status::InvalidArgument(
            "too many keywords (max " +
            std::to_string(kMaxIngestKeywordsPerTrajectory) + ")");
      }
      for (const JsonValue& v : kws->array_items()) {
        int64_t id;
        UOTS_RETURN_NOT_OK(ReadInt(v, "keyword", &id));
        if (id < 0 || id > UINT32_MAX) {
          return Status::InvalidArgument("keyword out of range");
        }
        terms.push_back(static_cast<TermId>(id));
      }
    }
    t.keywords = KeywordSet(std::move(terms));
    req.trajectories.push_back(std::move(t));
  }
  return req;
}

Result<IngestRequest> ParseIngestRequest(std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  return ParseIngestRequest(*parsed);
}

std::string EncodeIngestResponse(const IngestResponse& resp) {
  std::string out;
  out.reserve(160);
  if (!AppendResponseHead(resp, &out)) return out;
  AppendNumber(",\"accepted\":", static_cast<double>(resp.accepted), &out);
  AppendNumber(",\"first_traj\":", static_cast<double>(resp.first_traj),
               &out);
  AppendNumber(",\"generation\":", static_cast<double>(resp.generation),
               &out);
  AppendNumber(",\"delta_trajectories\":",
               static_cast<double>(resp.delta_trajectories), &out);
  out.push_back('}');
  return out;
}

Result<IngestResponse> ParseIngestResponse(std::string_view json) {
  IngestResponse resp;
  const Result<JsonValue> o = ReadResponseHead(json, &resp);
  if (!o.ok()) return o.status();
  const auto geti = [&](const char* key, int64_t fallback) -> int64_t {
    const JsonValue* v = o->Find(key);
    return v != nullptr ? static_cast<int64_t>(v->NumberOr(
                              static_cast<double>(fallback)))
                        : fallback;
  };
  resp.accepted = geti("accepted", 0);
  resp.first_traj = geti("first_traj", -1);
  resp.generation = geti("generation", 0);
  resp.delta_trajectories = geti("delta_trajectories", 0);
  return resp;
}

std::string EncodeQueryResponse(const QueryResponse& resp) {
  std::string out;
  out.reserve(kResponseOverheadBytes + 96 * resp.results.size());
  if (!AppendResponseHead(resp, &out)) return out;
  out.append(",\"results\":[");
  for (size_t i = 0; i < resp.results.size(); ++i) {
    const ScoredTrajectory& st = resp.results[i];
    AppendNumber(i == 0 ? "{\"traj\":" : ",{\"traj\":", st.id, &out);
    AppendNumber(",\"score\":", st.score, &out);
    AppendNumber(",\"spatial\":", st.spatial_sim, &out);
    AppendNumber(",\"textual\":", st.textual_sim, &out);
    out.push_back('}');
  }
  out.push_back(']');
  AppendResponseTail(resp, &out);
  return out;
}

std::string EncodeTripRequest(const TripRequest& req) {
  JsonValue o = OpenRequest(req, "trip");
  if (req.query.ordered) o.Set("ordered", JsonValue::Bool(true));
  if (req.query.use_categories) o.Set("categories", JsonValue::Bool(true));
  if (req.query.gap_budget_m > 0.0) {
    o.Set("gap_budget_m", JsonValue::Number(req.query.gap_budget_m));
  }
  o.Set("segments_per_location",
        JsonValue::Int(req.query.segments_per_location));
  o.Set("window", JsonValue::Int(req.query.window));
  return CloseRequest(req, std::move(o));
}

Result<TripRequest> ParseTripRequest(const JsonValue& o) {
  TripRequest req;
  UOTS_RETURN_NOT_OK(ReadRequestEnvelope(o, kMaxTripLocations, &req));
  if (const JsonValue* ordered = o.Find("ordered")) {
    if (!ordered->is_bool()) {
      return Status::InvalidArgument("ordered must be a boolean");
    }
    req.query.ordered = ordered->bool_value();
  }
  if (const JsonValue* cats = o.Find("categories")) {
    if (!cats->is_bool()) {
      return Status::InvalidArgument("categories must be a boolean");
    }
    req.query.use_categories = cats->bool_value();
  }
  if (const JsonValue* gap = o.Find("gap_budget_m")) {
    if (!gap->is_number() || gap->number_value() < 0.0) {
      return Status::InvalidArgument("gap_budget_m must be a number >= 0");
    }
    req.query.gap_budget_m = gap->number_value();
  }
  if (const JsonValue* spl = o.Find("segments_per_location")) {
    int64_t v;
    UOTS_RETURN_NOT_OK(ReadInt(*spl, "segments_per_location", &v));
    if (v < 1 || v > 64) {
      return Status::InvalidArgument("segments_per_location out of range");
    }
    req.query.segments_per_location = static_cast<int>(v);
  }
  if (const JsonValue* window = o.Find("window")) {
    int64_t v;
    UOTS_RETURN_NOT_OK(ReadInt(*window, "window", &v));
    if (v < 0 || v > 1024) {
      return Status::InvalidArgument("window out of range");
    }
    req.query.window = static_cast<int>(v);
  }
  return req;
}

Result<TripRequest> ParseTripRequest(std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  return ParseTripRequest(*parsed);
}

std::string EncodeTripResponse(const TripResponse& resp) {
  std::string out;
  size_t segments = 0;
  for (const AssembledTrip& trip : resp.trips) segments += trip.segments.size();
  out.reserve(kResponseOverheadBytes + 128 * resp.trips.size() +
              160 * segments);
  if (!AppendResponseHead(resp, &out)) return out;
  out.append(",\"trips\":[");
  for (size_t i = 0; i < resp.trips.size(); ++i) {
    const AssembledTrip& trip = resp.trips[i];
    AppendNumber(i == 0 ? "{\"score\":" : ",{\"score\":", trip.score, &out);
    AppendNumber(",\"spatial\":", trip.spatial_sim, &out);
    AppendNumber(",\"textual\":", trip.textual_sim, &out);
    AppendNumber(",\"connector_m\":", trip.connector_total_m, &out);
    out.append(",\"segments\":[");
    for (size_t j = 0; j < trip.segments.size(); ++j) {
      const TripSegment& seg = trip.segments[j];
      AppendNumber(j == 0 ? "{\"traj\":" : ",{\"traj\":", seg.traj, &out);
      AppendNumber(",\"begin\":", seg.begin, &out);
      AppendNumber(",\"end\":", seg.end, &out);
      AppendNumber(",\"entry\":", seg.entry, &out);
      AppendNumber(",\"exit\":", seg.exit, &out);
      AppendNumber(",\"loc_distance\":", seg.loc_distance, &out);
      AppendNumber(",\"connector_m\":", seg.connector_m, &out);
      out.push_back('}');
    }
    out.append("]}");
  }
  out.push_back(']');
  AppendResponseTail(resp, &out);
  return out;
}

Result<TripResponse> ParseTripResponse(std::string_view json) {
  TripResponse resp;
  const Result<JsonValue> o = ReadResponseEnvelope(json, &resp);
  if (!o.ok()) return o.status();
  if (const JsonValue* trips = o->Find("trips")) {
    if (!trips->is_array()) {
      return Status::InvalidArgument("trips must be an array");
    }
    for (const JsonValue& t : trips->array_items()) {
      if (!t.is_object()) {
        return Status::InvalidArgument("trip must be an object");
      }
      AssembledTrip trip;
      trip.score = t.Find("score") ? t.Find("score")->NumberOr(0) : 0;
      trip.spatial_sim =
          t.Find("spatial") ? t.Find("spatial")->NumberOr(0) : 0;
      trip.textual_sim =
          t.Find("textual") ? t.Find("textual")->NumberOr(0) : 0;
      trip.connector_total_m =
          t.Find("connector_m") ? t.Find("connector_m")->NumberOr(0) : 0;
      if (const JsonValue* segments = t.Find("segments")) {
        if (!segments->is_array()) {
          return Status::InvalidArgument("segments must be an array");
        }
        for (const JsonValue& sv : segments->array_items()) {
          if (!sv.is_object()) {
            return Status::InvalidArgument("segment must be an object");
          }
          TripSegment s;
          const auto geti = [&](const char* key, int64_t fallback) -> int64_t {
            const JsonValue* v = sv.Find(key);
            return v != nullptr ? static_cast<int64_t>(v->NumberOr(
                                      static_cast<double>(fallback)))
                                : fallback;
          };
          s.traj = static_cast<TrajId>(geti("traj", -1));
          s.begin = static_cast<uint32_t>(geti("begin", 0));
          s.end = static_cast<uint32_t>(geti("end", 0));
          s.entry = static_cast<VertexId>(geti("entry", -1));
          s.exit = static_cast<VertexId>(geti("exit", -1));
          s.loc_distance = sv.Find("loc_distance")
                               ? sv.Find("loc_distance")->NumberOr(0)
                               : 0;
          s.connector_m = sv.Find("connector_m")
                              ? sv.Find("connector_m")->NumberOr(0)
                              : 0;
          trip.segments.push_back(s);
        }
      }
      resp.trips.push_back(std::move(trip));
    }
  }
  return resp;
}

Result<QueryResponse> ParseQueryResponse(std::string_view json) {
  QueryResponse resp;
  const Result<JsonValue> o = ReadResponseEnvelope(json, &resp);
  if (!o.ok()) return o.status();
  if (const JsonValue* results = o->Find("results")) {
    if (!results->is_array()) {
      return Status::InvalidArgument("results must be an array");
    }
    for (const JsonValue& item : results->array_items()) {
      if (!item.is_object()) {
        return Status::InvalidArgument("result item must be an object");
      }
      ScoredTrajectory st;
      int64_t traj = -1;
      if (const JsonValue* t = item.Find("traj")) {
        UOTS_RETURN_NOT_OK(ReadInt(*t, "traj", &traj));
      }
      st.id = static_cast<TrajId>(traj);
      st.score = item.Find("score") ? item.Find("score")->NumberOr(0) : 0;
      st.spatial_sim =
          item.Find("spatial") ? item.Find("spatial")->NumberOr(0) : 0;
      st.textual_sim =
          item.Find("textual") ? item.Find("textual")->NumberOr(0) : 0;
      resp.results.push_back(st);
    }
  }
  return resp;
}

}  // namespace uots
