// Length-prefixed JSON wire protocol for UOTS queries.
//
// Framing: each message is a 4-byte big-endian unsigned payload length
// followed by that many bytes of UTF-8 JSON. Length prefixes keep the
// parser trivial and make pipelining natural (any number of frames may sit
// in one TCP segment). Frames above the configured maximum are rejected
// with a clean error response and *skipped* — the declared length still
// tells the decoder exactly how many bytes to discard, so the connection
// resynchronizes on the next frame instead of being dropped.
//
// Responses on one connection come back in request order. That covers
// every reply: a cache hit answered on the reactor, a parse or
// oversized-frame error, overloaded/shutting_down, and a deadline reply,
// each of which waits behind the replies to earlier requests.
//
// Request object (all ids are numbers except request_id):
//   {"id": 7,                      // caller-chosen correlation id
//    "request_id": "cli-42",       // optional; server generates when absent
//    "locations": [12, 904, 77],   // query vertices, 1..64
//    "keywords": [3, 15],          // term ids
//    "lambda": 0.5, "k": 10,
//    "algorithm": "UOTS",          // optional; ToString(AlgorithmKind) name
//    "deadline_ms": 50}            // optional, 0..1e12 (kMaxDeadlineMs);
//                                  // 0/absent = server default
//
// Response object:
//   {"id": 7, "request_id": "cli-42",  // echoed byte-for-byte (or generated)
//    "status": "ok",                   // see ResponseStatus below
//    "results": [{"traj": 5, "score": 0.93, "spatial": 0.9, "textual": 1.0}],
//    "stats": {...},               // QueryStats::ToJson schema
//    "server": {"queue_wait_ms": 0.1, "execute_ms": 2.3}}
// or on failure:
//   {"id": 7, "request_id": "s3-17", "status": "overloaded",
//    "retryable": true, "error": "..."}
//
// The request_id is the observability correlation key: the server attaches
// it to trace spans and slow-query-log entries (see server/admin.h), so a
// response, a /slowqueries row, and a sampled span tree can all be joined
// on one string.
//
// Scores are serialized with round-trip precision, so a client can compare
// results bit-for-bit against an in-process RunQuery. The response
// encoders write JSON directly (no JsonValue tree); field order and bytes
// are pinned by protocol_test's goldens.

#ifndef UOTS_SERVER_PROTOCOL_H_
#define UOTS_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithm.h"
#include "core/query.h"
#include "server/json.h"
#include "traj/trajectory.h"
#include "trip/trip_query.h"
#include "util/counters.h"
#include "util/status.h"

namespace uots {

/// Frames larger than this are rejected (and skipped) by default.
inline constexpr size_t kDefaultMaxFrameBytes = size_t{1} << 20;  // 1 MiB
inline constexpr size_t kFrameHeaderBytes = 4;

/// Appends `payload` as one wire frame (header + body) to `out`.
void AppendFrame(std::string_view payload, std::string* out);
std::string EncodeFrame(std::string_view payload);

/// \brief Incremental frame decoder over a byte stream.
///
/// Feed arbitrary chunks with Append, then call Poll until kNeedMore.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(const char* data, size_t n);

  enum class Next {
    kFrame,     ///< *payload holds one complete frame body
    kNeedMore,  ///< no complete frame buffered; feed more bytes
    kOversized  ///< a frame exceeded the maximum; reported once, then skipped
  };

  /// Extracts the next event. On kOversized, *oversized_bytes (if non-null)
  /// receives the declared length; the decoder then discards exactly that
  /// many payload bytes as they arrive and continues with the next frame.
  Next Poll(std::string* payload, size_t* oversized_bytes = nullptr);

  size_t buffered_bytes() const { return buf_.size() - consumed_; }
  size_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  void Compact();

  std::string buf_;
  size_t consumed_ = 0;        ///< prefix of buf_ already handed out
  size_t skip_remaining_ = 0;  ///< oversized payload bytes left to discard
  size_t max_frame_bytes_;
};

/// \brief Machine-readable outcome of one request.
enum class ResponseStatus {
  kOk,
  kParseError,        ///< unparseable frame (malformed JSON / bad fields)
  kInvalidArgument,   ///< well-formed but semantically invalid query
  kOverloaded,        ///< admission control rejected; retryable
  kDeadlineExceeded,  ///< deadline passed before a result was produced
  kShuttingDown,      ///< server is draining; retryable elsewhere
  kInternal,
};

/// Stable lower_snake wire name ("ok", "overloaded", ...).
const char* ToString(ResponseStatus s);
/// Inverse of ToString; kInternal when unknown.
ResponseStatus ParseResponseStatus(std::string_view name);
/// True for statuses a client should retry (overload, shutdown).
bool IsRetryable(ResponseStatus s);
/// Maps an engine/validation Status to the wire status.
ResponseStatus FromStatus(const Status& st);

/// \brief Per-request result-cache policy.
enum class CacheMode {
  kDefault,  ///< use the server's result cache when it has one
  kBypass,   ///< always compute; do not read or populate the cache
};

/// Client-supplied request_id values longer than this are rejected as a
/// parse error (they would bloat logs and slow-log entries).
inline constexpr size_t kMaxRequestIdBytes = 128;

/// The largest deadline_ms a request may carry, about 31.7 years. Past
/// ~9.2e12 ms the deadline in nanoseconds no longer fits an int64_t; larger
/// values are rejected as a parse error.
inline constexpr double kMaxDeadlineMs = 1e12;

/// \brief The fields every query and trip request carries.
///
/// The rest of the request envelope (locations, keywords, lambda, k) lives
/// in each kind's query struct; one parser reads all of it for both kinds.
struct RequestEnvelope {
  int64_t id = 0;
  /// Optional client-chosen correlation string; the server generates one
  /// when empty and echoes it (either way) in the response.
  std::string request_id;
  double deadline_ms = 0.0;  ///< 0 = use the server default
  /// Wire field "cache": "default" (omitted) or "bypass".
  CacheMode cache = CacheMode::kDefault;
};

/// \brief A decoded query request.
struct QueryRequest : RequestEnvelope {
  UotsQuery query;
  AlgorithmKind algorithm = AlgorithmKind::kUots;
  bool has_algorithm = false;  ///< request named one explicitly
};

std::string EncodeQueryRequest(const QueryRequest& req);
/// Strict parse: unknown algorithm names, non-numeric ids, or missing
/// required fields are errors (the server turns them into kParseError).
Result<QueryRequest> ParseQueryRequest(std::string_view json);
/// Same, over an already-parsed object (the server parses each frame once
/// and dispatches on its "type" field; see RequestTypeOf).
Result<QueryRequest> ParseQueryRequest(const JsonValue& o);

/// \brief Wire request kinds, dispatched on the optional "type" field.
enum class RequestType {
  kQuery,    ///< "type" absent or "query"
  kIngest,   ///< "type": "ingest"
  kTrip,     ///< "type": "trip"
  kUnknown,  ///< anything else -> parse error
};

/// Classifies a parsed request object (object-ness is NOT checked here).
RequestType RequestTypeOf(const JsonValue& o);

/// Batches above this are rejected outright (atomic apply keeps the whole
/// batch in memory twice while validating; a megabatch belongs in multiple
/// frames).
inline constexpr size_t kMaxIngestBatchTrajectories = 4096;
/// Per-trajectory shape caps, mirroring what the generator/snapshot paths
/// produce; anything larger is almost certainly a corrupt or hostile frame.
inline constexpr size_t kMaxIngestSamplesPerTrajectory = 65536;
inline constexpr size_t kMaxIngestKeywordsPerTrajectory = 4096;

/// \brief The head every reply carries, whatever its kind; a non-ok
/// reply is the head alone (plus "retryable" on the wire).
struct ResponseHead {
  int64_t id = 0;
  /// Echo of the request's request_id (server-generated when the request
  /// carried none). Set on every response the server sends, errors
  /// included.
  std::string request_id;
  ResponseStatus status = ResponseStatus::kOk;
  std::string error;

  bool ok() const { return status == ResponseStatus::kOk; }
  bool retryable() const { return IsRetryable(status); }
};

/// \brief A decoded ingest request: a batch of new trajectories.
///
/// Wire form (type distinguishes it from a query on the same connection):
///   {"id": 9, "type": "ingest", "request_id": "cli-7",
///    "trajectories": [
///      {"samples": [[12, 3600], [13, 3660]], "keywords": [3, 15]}, ...]}
/// Samples are [vertex, time_of_day_seconds] pairs, nondecreasing in time;
/// keywords are term ids (deduplicated/sorted server-side).
struct IngestRequest {
  int64_t id = 0;
  std::string request_id;
  std::vector<Trajectory> trajectories;
};

std::string EncodeIngestRequest(const IngestRequest& req);
Result<IngestRequest> ParseIngestRequest(const JsonValue& o);
Result<IngestRequest> ParseIngestRequest(std::string_view json);

/// \brief The ingest reply.
///
///   {"id": 9, "request_id": "cli-7", "status": "ok", "accepted": 128,
///    "first_traj": 250128, "generation": 3, "delta_trajectories": 384}
/// Batches are atomic: on any non-ok status, accepted == 0 and nothing was
/// ingested ("error" names the first offending trajectory).
struct IngestResponse : ResponseHead {
  int64_t accepted = 0;
  /// Global TrajId of the first trajectory in the batch (contiguous ids
  /// follow); -1 on failure.
  int64_t first_traj = -1;
  /// Delta generation now serving (bumped by this batch).
  int64_t generation = 0;
  /// Total uncompacted delta trips after this batch.
  int64_t delta_trajectories = 0;
};

std::string EncodeIngestResponse(const IngestResponse& resp);
Result<IngestResponse> ParseIngestResponse(std::string_view json);

/// \brief The fields every query and trip reply carries; one encoder
/// writes them and one decoder reads them for both kinds.
struct ResponseEnvelope : ResponseHead {
  bool has_stats = false;
  QueryStats stats;  ///< engine counters (phase times are not decoded)
  /// True when the answer came from the server's result cache (the stats
  /// are then those of the run that populated the entry).
  bool cached = false;
  double queue_wait_ms = 0.0;  ///< time between admission and worker pickup
  double execute_ms = 0.0;     ///< engine wall time on the worker
};

/// \brief A decoded (or to-be-encoded) query response.
struct QueryResponse : ResponseEnvelope {
  std::vector<ScoredTrajectory> results;
};

std::string EncodeQueryResponse(const QueryResponse& resp);
Result<QueryResponse> ParseQueryResponse(std::string_view json);

/// \brief A decoded trip-assembly request.
///
/// Wire form ("type" distinguishes it from a query on the same
/// connection):
///   {"id": 3, "type": "trip", "request_id": "cli-9",
///    "locations": [12, 904, 77], "keywords": [3, 15],
///    "lambda": 0.5, "k": 3,
///    "ordered": true,             // optional; visit locations in order
///    "categories": true,          // optional; category-hierarchy matching
///    "gap_budget_m": 1500.0,      // optional; 0/absent = unlimited
///    "segments_per_location": 8,  // optional harvest shape
///    "window": 4,                 // optional harvest shape
///    "deadline_ms": 50, "cache": "bypass"}  // as on query requests
struct TripRequest : RequestEnvelope {
  TripQuery query;
};

std::string EncodeTripRequest(const TripRequest& req);
Result<TripRequest> ParseTripRequest(const JsonValue& o);
Result<TripRequest> ParseTripRequest(std::string_view json);

/// \brief The trip reply: assembled trips with per-segment provenance.
///
///   {"id": 3, "request_id": "cli-9", "status": "ok",
///    "trips": [{"score": 0.91, "spatial": 0.88, "textual": 0.95,
///               "connector_m": 812.5,
///               "segments": [{"traj": 5, "begin": 2, "end": 11,
///                             "entry": 40, "exit": 61,
///                             "loc_distance": 120.5, "connector_m": 0},
///                            ...]}],
///    "stats": {...}, "server": {...}}
/// All doubles round-trip exactly (JsonAppendDouble), so a client can
/// compare trips bit-for-bit against an in-process TripPlanner.
struct TripResponse : ResponseEnvelope {
  std::vector<AssembledTrip> trips;
};

std::string EncodeTripResponse(const TripResponse& resp);
Result<TripResponse> ParseTripResponse(std::string_view json);

/// Parses a ToString(AlgorithmKind) name ("UOTS", "BF", ...), case-
/// insensitively. kNotFound for unknown names.
Result<AlgorithmKind> ParseAlgorithmKind(std::string_view name);

}  // namespace uots

#endif  // UOTS_SERVER_PROTOCOL_H_
