// The query kinds the server answers, as compile-time traits.
//
// Top-k trajectory retrieval and trip assembly share one request pipeline:
// UotsServer::HandleRequest and OnComplete on the reactor,
// UotsService::CacheLookup (the reactor's cache probe) and TryExecute (the
// worker body) are each written once, as templates over a kind. A kind
// supplies only what differs:
//
//   - its request, query, engine, output and response types;
//   - parsing its body fields (protocol.h's Parse*Request), and building a
//     request for clients;
//   - its result-cache key;
//   - building and running a pooled engine (which engine: the Variant);
//   - where its answer sits in an engine output, a cache entry and a reply;
//   - its slow-log name, query summary and segment count, and any
//     per-kind histograms the server records when an execution completes.
//
// Everything else — drain, request id, cache probe and hit reply, deadline,
// trace sampling, admission, overload and shutdown replies, completion,
// slow log and latency — exists once. Dispatch is static: no virtual call
// or type erasure is added on the cache-hit path.

#ifndef UOTS_SERVER_REQUEST_KIND_H_
#define UOTS_SERVER_REQUEST_KIND_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/query_key.h"
#include "cache/result_cache.h"
#include "core/algorithm.h"
#include "server/protocol.h"
#include "trip/planner.h"

namespace uots {

struct ServerHistograms;  // server/server.h

/// \brief Top-k retrieval of whole trajectories ranked by SimU.
struct RetrievalKind {
  using Request = QueryRequest;
  using Response = QueryResponse;
  using Query = UotsQuery;
  /// Which pooled engine answers a request.
  using Variant = AlgorithmKind;
  using Engine = SearchAlgorithm;
  using Output = SearchResult;

  static constexpr auto kOutputBody = &SearchResult::items;
  static constexpr auto kCachedBody = &CachedResult::items;
  static constexpr auto kResponseBody = &QueryResponse::results;

  static Result<Request> Parse(const JsonValue& doc) {
    return ParseQueryRequest(doc);
  }
  static Variant VariantOf(const Request& req) {
    return req.has_algorithm ? req.algorithm : AlgorithmKind::kUots;
  }
  /// A request for `q` answered by engine `v` (what clients send).
  static Request MakeRequest(const Query& q, Variant v) {
    Request req;
    req.query = q;
    req.algorithm = v;
    req.has_algorithm = true;
    return req;
  }
  static std::string CacheKey(const Query& q, Variant v,
                              const UotsSearchOptions& opts, uint64_t salt) {
    return EncodeResultCacheKey(q, v, opts, salt);
  }
  static std::unique_ptr<Engine> MakeEngine(const TrajectoryDatabase& db,
                                            Variant v,
                                            const UotsSearchOptions& opts) {
    return CreateAlgorithm(db, v, opts);
  }
  static Result<Output> Run(Engine& engine, const Query& q) {
    return engine.Search(q);
  }
  static void RecordPhases(ServerHistograms&, const Status&, const Output&,
                           double) {}

  static const char* Name(Variant v) { return ToString(v); }
  /// "locs=.. kw=.. lambda=.. k=.. algo=.." for the slow log.
  static std::string Summarize(const Query& q, Variant v);
  /// Segment count for the slow log; -1 (not shown) for retrieval.
  static int Segments(const std::vector<ScoredTrajectory>&) { return -1; }
};

/// \brief Trip assembly: one connected trip stitched from segments of
/// several trajectories.
struct TripKind {
  using Request = TripRequest;
  using Response = TripResponse;
  using Query = TripQuery;
  /// Trips have one planner.
  enum class Variant { kPlanner };
  using Engine = TripPlanner;
  using Output = TripResult;

  static constexpr auto kOutputBody = &TripResult::trips;
  static constexpr auto kCachedBody = &CachedResult::trips;
  static constexpr auto kResponseBody = &TripResponse::trips;

  static Result<Request> Parse(const JsonValue& doc) {
    return ParseTripRequest(doc);
  }
  static Variant VariantOf(const Request&) { return Variant::kPlanner; }
  static Request MakeRequest(const Query& q, Variant) {
    Request req;
    req.query = q;
    return req;
  }
  static std::string CacheKey(const Query& q, Variant,
                              const UotsSearchOptions&, uint64_t salt) {
    return EncodeTripCacheKey(q, salt);
  }
  /// The planner follows the server's one oracle switch.
  static std::unique_ptr<Engine> MakeEngine(const TrajectoryDatabase& db,
                                            Variant,
                                            const UotsSearchOptions& opts) {
    return std::make_unique<TripPlanner>(db,
                                         TripPlannerOptions{opts.use_oracle});
  }
  static Result<Output> Run(Engine& planner, const Query& q) {
    return planner.Plan(q);
  }
  /// Records trip_plan (the execute time), plus trip_harvest and
  /// trip_assemble when the plan succeeded (loop thread).
  static void RecordPhases(ServerHistograms& h, const Status& status,
                           const Output& out, double execute_ms);

  static const char* Name(Variant) { return "TRIP"; }
  /// "trip locs=.. kw=.. lambda=.. k=.. ordered=.. cat=.. [gap=..]".
  static std::string Summarize(const Query& q, Variant);
  /// Segment count of the best trip (0 when none was assembled).
  static int Segments(const std::vector<AssembledTrip>& trips) {
    return trips.empty() ? 0 : static_cast<int>(trips[0].segments.size());
  }
};

}  // namespace uots

#endif  // UOTS_SERVER_REQUEST_KIND_H_
