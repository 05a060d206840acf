#include "server/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "server/json.h"

namespace uots {
namespace {

// --- framing ---------------------------------------------------------------

TEST(FrameDecoderTest, RoundTripsOneFrame) {
  FrameDecoder dec;
  const std::string frame = EncodeFrame("hello");
  dec.Append(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(dec.Poll(&payload), FrameDecoder::Next::kFrame);
  EXPECT_EQ(payload, "hello");
  EXPECT_EQ(dec.Poll(&payload), FrameDecoder::Next::kNeedMore);
}

TEST(FrameDecoderTest, TruncatedFrameNeedsMoreByteAtATime) {
  FrameDecoder dec;
  const std::string frame = EncodeFrame("payload body");
  std::string payload;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    dec.Append(frame.data() + i, 1);
    EXPECT_EQ(dec.Poll(&payload), FrameDecoder::Next::kNeedMore)
        << "complete frame reported after only " << i + 1 << " bytes";
  }
  dec.Append(frame.data() + frame.size() - 1, 1);
  ASSERT_EQ(dec.Poll(&payload), FrameDecoder::Next::kFrame);
  EXPECT_EQ(payload, "payload body");
}

TEST(FrameDecoderTest, PipelinedFramesDecodeInOrder) {
  FrameDecoder dec;
  std::string wire;
  for (int i = 0; i < 5; ++i) {
    AppendFrame("frame " + std::to_string(i), &wire);
  }
  dec.Append(wire.data(), wire.size());
  std::string payload;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(dec.Poll(&payload), FrameDecoder::Next::kFrame);
    EXPECT_EQ(payload, "frame " + std::to_string(i));
  }
  EXPECT_EQ(dec.Poll(&payload), FrameDecoder::Next::kNeedMore);
}

TEST(FrameDecoderTest, EmptyPayloadFrameIsValid) {
  FrameDecoder dec;
  const std::string frame = EncodeFrame("");
  dec.Append(frame.data(), frame.size());
  std::string payload = "junk";
  ASSERT_EQ(dec.Poll(&payload), FrameDecoder::Next::kFrame);
  EXPECT_EQ(payload, "");
}

TEST(FrameDecoderTest, OversizedFrameIsSkippedAndResyncs) {
  FrameDecoder dec(/*max_frame_bytes=*/16);
  std::string wire;
  AppendFrame(std::string(100, 'x'), &wire);  // too big
  AppendFrame("small", &wire);                // must still decode
  // Feed in small chunks so the skip spans multiple Appends.
  std::string payload;
  size_t oversized = 0;
  bool saw_oversized = false;
  for (size_t off = 0; off < wire.size(); off += 7) {
    const size_t n = std::min<size_t>(7, wire.size() - off);
    dec.Append(wire.data() + off, n);
    for (;;) {
      const FrameDecoder::Next next = dec.Poll(&payload, &oversized);
      if (next == FrameDecoder::Next::kNeedMore) break;
      if (next == FrameDecoder::Next::kOversized) {
        EXPECT_FALSE(saw_oversized) << "oversized frame reported twice";
        saw_oversized = true;
        EXPECT_EQ(oversized, 100u);
        continue;
      }
      EXPECT_EQ(payload, "small");
    }
  }
  EXPECT_TRUE(saw_oversized);
  EXPECT_EQ(payload, "small") << "decoder failed to resync after skip";
}

TEST(FrameDecoderTest, FrameAtExactLimitIsAccepted) {
  FrameDecoder dec(/*max_frame_bytes=*/8);
  const std::string frame = EncodeFrame(std::string(8, 'y'));
  dec.Append(frame.data(), frame.size());
  std::string payload;
  EXPECT_EQ(dec.Poll(&payload), FrameDecoder::Next::kFrame);
  EXPECT_EQ(payload.size(), 8u);
}

// --- request / response codecs --------------------------------------------

QueryRequest MakeRequest() {
  QueryRequest req;
  req.id = 42;
  req.query.locations = {7, 19, 3};
  req.query.keywords = KeywordSet({5, 2, 9});
  req.query.lambda = 0.375;
  req.query.k = 10;
  req.algorithm = AlgorithmKind::kBruteForce;
  req.has_algorithm = true;
  req.deadline_ms = 25.5;
  return req;
}

TEST(ProtocolTest, RequestRoundTrips) {
  const QueryRequest req = MakeRequest();
  auto parsed = ParseQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, 42);
  EXPECT_EQ(parsed->query.locations, req.query.locations);
  EXPECT_EQ(parsed->query.keywords, req.query.keywords);
  EXPECT_EQ(parsed->query.lambda, 0.375);
  EXPECT_EQ(parsed->query.k, 10);
  EXPECT_TRUE(parsed->has_algorithm);
  EXPECT_EQ(parsed->algorithm, AlgorithmKind::kBruteForce);
  EXPECT_EQ(parsed->deadline_ms, 25.5);
}

TEST(ProtocolTest, MalformedJsonIsRejected) {
  for (const char* bad : {
           "",                        // empty
           "{",                       // truncated
           "[1,2,3]",                 // not an object
           "{\"id\": 1,}",            // trailing comma
           "{\"id\": 1} extra",       // trailing garbage
           "{\"id\": \"seven\"}",     // non-numeric id
           "not json at all",
       }) {
    EXPECT_FALSE(ParseQueryRequest(bad).ok()) << "accepted: " << bad;
  }
}

TEST(ProtocolTest, SemanticallyInvalidRequestsAreRejected) {
  const QueryRequest base = MakeRequest();
  {
    QueryRequest r = base;  // no locations
    r.query.locations.clear();
    EXPECT_FALSE(ParseQueryRequest(EncodeQueryRequest(r)).ok());
  }
  {
    std::string json = EncodeQueryRequest(base);
    // Unknown algorithm names must be an error, not a silent default.
    const size_t pos = json.find("\"BF\"");
    ASSERT_NE(pos, std::string::npos);
    json.replace(pos, 4, "\"XX\"");
    EXPECT_FALSE(ParseQueryRequest(json).ok());
  }
}

TEST(ProtocolTest, CacheModeRoundTrips) {
  // Default mode omits the field entirely and parses back as default.
  QueryRequest req = MakeRequest();
  EXPECT_EQ(EncodeQueryRequest(req).find("cache"), std::string::npos);
  auto parsed = ParseQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->cache, CacheMode::kDefault);

  req.cache = CacheMode::kBypass;
  parsed = ParseQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->cache, CacheMode::kBypass);

  // An explicit "default" is also accepted.
  parsed = ParseQueryRequest(R"({"id":1,"locations":[1,2],"cache":"default"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->cache, CacheMode::kDefault);
}

TEST(ProtocolTest, InvalidCacheModeIsRejected) {
  EXPECT_FALSE(
      ParseQueryRequest(R"({"id":1,"locations":[1,2],"cache":"maybe"})").ok());
  EXPECT_FALSE(
      ParseQueryRequest(R"({"id":1,"locations":[1,2],"cache":7})").ok());
}

TEST(ProtocolTest, CachedFlagRoundTrips) {
  QueryResponse resp;
  resp.id = 3;
  resp.status = ResponseStatus::kOk;
  resp.results.push_back(ScoredTrajectory{1, 0.5, 0.5, 0.5});
  // Fresh responses omit the flag and parse back as not-cached.
  EXPECT_EQ(EncodeQueryResponse(resp).find("cached"), std::string::npos);
  auto parsed = ParseQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->cached);

  resp.cached = true;
  parsed = ParseQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->cached);
}

TEST(ProtocolTest, RequestIdRoundTrips) {
  QueryRequest req = MakeRequest();
  // Absent by default: no wire bytes spent, parses back empty.
  EXPECT_EQ(EncodeQueryRequest(req).find("request_id"), std::string::npos);
  auto parsed = ParseQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->request_id.empty());

  req.request_id = "cli-42/abc";
  parsed = ParseQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->request_id, "cli-42/abc");
}

TEST(ProtocolTest, OverlongRequestIdIsRejected) {
  QueryRequest req = MakeRequest();
  req.request_id = std::string(kMaxRequestIdBytes, 'x');
  EXPECT_TRUE(ParseQueryRequest(EncodeQueryRequest(req)).ok())
      << "exactly at the cap must be accepted";
  req.request_id = std::string(kMaxRequestIdBytes + 1, 'x');
  EXPECT_FALSE(ParseQueryRequest(EncodeQueryRequest(req)).ok());
  EXPECT_FALSE(
      ParseQueryRequest(R"({"id":1,"locations":[1,2],"request_id":7})").ok())
      << "non-string request_id must be rejected";
}

TEST(ProtocolTest, ResponseRequestIdRoundTrips) {
  QueryResponse resp;
  resp.id = 4;
  resp.status = ResponseStatus::kOk;
  resp.request_id = "s3-17";
  auto parsed = ParseQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->request_id, "s3-17");

  // Errors carry the id too — correlation must survive failure paths.
  resp.status = ResponseStatus::kParseError;
  resp.error = "bad frame";
  parsed = ParseQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, "s3-17");
  EXPECT_EQ(parsed->status, ResponseStatus::kParseError);

  resp.request_id.clear();
  EXPECT_EQ(EncodeQueryResponse(resp).find("request_id"), std::string::npos);
}

TEST(ProtocolTest, ResponseRoundTripsExactDoubles) {
  QueryResponse resp;
  resp.id = 7;
  resp.status = ResponseStatus::kOk;
  // Scores chosen to require full round-trip precision.
  resp.results.push_back(ScoredTrajectory{3, 0.1 + 0.2, 1.0 / 3.0, 0.7});
  resp.results.push_back(ScoredTrajectory{11, 5e-324, 0.0, 1.0});
  resp.has_stats = true;
  resp.stats.visited_trajectories = 123;
  resp.queue_wait_ms = 0.25;
  resp.execute_ms = 3.75;

  auto parsed = ParseQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, 7);
  EXPECT_TRUE(parsed->ok());
  ASSERT_EQ(parsed->results.size(), 2u);
  EXPECT_EQ(parsed->results[0].id, 3u);
  EXPECT_EQ(parsed->results[0].score, 0.1 + 0.2) << "score bits changed";
  EXPECT_EQ(parsed->results[0].spatial_sim, 1.0 / 3.0);
  EXPECT_EQ(parsed->results[1].score, 5e-324) << "denormal bits changed";
  EXPECT_EQ(parsed->queue_wait_ms, 0.25);
  EXPECT_EQ(parsed->execute_ms, 3.75);
}

TEST(ProtocolTest, ErrorResponseRoundTrips) {
  QueryResponse resp;
  resp.id = 9;
  resp.status = ResponseStatus::kOverloaded;
  resp.error = "server at capacity";
  auto parsed = ParseQueryResponse(EncodeQueryResponse(resp));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->status, ResponseStatus::kOverloaded);
  EXPECT_TRUE(parsed->retryable());
  EXPECT_EQ(parsed->error, "server at capacity");
}

TEST(ProtocolTest, StatusNamesRoundTrip) {
  for (ResponseStatus s : {
           ResponseStatus::kOk, ResponseStatus::kParseError,
           ResponseStatus::kInvalidArgument, ResponseStatus::kOverloaded,
           ResponseStatus::kDeadlineExceeded, ResponseStatus::kShuttingDown,
           ResponseStatus::kInternal,
       }) {
    EXPECT_EQ(ParseResponseStatus(ToString(s)), s);
  }
  EXPECT_TRUE(IsRetryable(ResponseStatus::kOverloaded));
  EXPECT_TRUE(IsRetryable(ResponseStatus::kShuttingDown));
  EXPECT_FALSE(IsRetryable(ResponseStatus::kOk));
  EXPECT_FALSE(IsRetryable(ResponseStatus::kDeadlineExceeded));
}

TEST(ProtocolTest, AlgorithmNamesParseCaseInsensitively) {
  auto a = ParseAlgorithmKind("uots");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, AlgorithmKind::kUots);
  auto b = ParseAlgorithmKind("BF");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, AlgorithmKind::kBruteForce);
  EXPECT_FALSE(ParseAlgorithmKind("nope").ok());
}

// --- the request envelope, through both request kinds ----------------------
//
// Queries and trips share the envelope fields (id, request_id, locations,
// keywords, lambda, k, deadline_ms, cache). Every case below runs through a
// query frame and a trip frame and must get the same verdict from both.

/// A request frame with every envelope field at a valid value, except that
/// `field` is set to `value` (or dropped when `value` is empty).
std::string EnvelopeFrame(bool trip, const std::string& field,
                          const std::string& value) {
  const std::pair<std::string, std::string> defaults[] = {
      {"id", "1"},          {"request_id", "\"r-1\""},
      {"locations", "[1,2]"}, {"keywords", "[3,4]"},
      {"lambda", "0.5"},    {"k", "3"},
      {"deadline_ms", "10"}, {"cache", "\"default\""}};
  std::string out = trip ? R"({"type":"trip")" : R"({"type":"query")";
  for (const auto& [name, fallback] : defaults) {
    const std::string& v = name == field ? value : fallback;
    if (v.empty()) continue;
    out += ",\"" + name + "\":" + v;
  }
  return out + "}";
}

/// A JSON array of `n` distinct vertex ids.
std::string LocationList(size_t n) {
  std::string out = "[";
  for (size_t i = 0; i < n; ++i) {
    if (i != 0) out += ',';
    out += std::to_string(i);
  }
  return out + "]";
}

bool ParsesAs(bool trip, const std::string& frame) {
  return trip ? ParseTripRequest(frame).ok() : ParseQueryRequest(frame).ok();
}

TEST(ProtocolTest, RequestEnvelopeChecksHoldForQueriesAndTrips) {
  struct Case {
    std::string field;
    std::string value;
    bool accepted;
  };
  const std::string id_at_cap =
      "\"" + std::string(kMaxRequestIdBytes, 'x') + "\"";
  const std::string id_over_cap =
      "\"" + std::string(kMaxRequestIdBytes + 1, 'x') + "\"";
  const std::vector<Case> cases = {
      {"", "", true},  // the defaults themselves
      {"id", "1.5", false},
      {"id", "\"seven\"", false},
      {"id", "1e16", false},
      {"id", "-9007199254740992", true},
      {"request_id", "7", false},
      {"request_id", id_at_cap, true},
      {"request_id", id_over_cap, false},
      {"locations", "", false},
      {"locations", "[]", false},
      {"locations", "5", false},
      {"locations", "[-1]", false},
      {"locations", "[4294967296]", false},
      {"locations", "[4294967295]", true},
      {"locations", "[1.5]", false},
      {"keywords", "5", false},
      {"keywords", "[-1]", false},
      {"keywords", "[4294967296]", false},
      {"keywords", "", true},
      {"lambda", "\"half\"", false},
      {"lambda", "null", false},
      {"k", "-1", false},
      {"k", "2147483648", false},
      {"k", "2147483647", true},
      {"deadline_ms", "-1", false},
      {"deadline_ms", "\"soon\"", false},
      {"deadline_ms", "0", true},
      {"deadline_ms", "1e13", false},
      {"deadline_ms", "1e12", true},
      {"cache", "\"maybe\"", false},
      {"cache", "7", false},
      {"cache", "\"bypass\"", true},
  };
  for (const Case& c : cases) {
    for (const bool trip : {false, true}) {
      const std::string frame = EnvelopeFrame(trip, c.field, c.value);
      EXPECT_EQ(ParsesAs(trip, frame), c.accepted)
          << (trip ? "trip" : "query") << " frame: " << frame;
    }
  }
  // Each kind has its own location cap: exactly at it is accepted, one
  // more is rejected.
  for (const bool trip : {false, true}) {
    const size_t cap = trip ? kMaxTripLocations : kMaxQueryLocations;
    EXPECT_TRUE(
        ParsesAs(trip, EnvelopeFrame(trip, "locations", LocationList(cap))))
        << (trip ? "trip" : "query") << " at the location cap";
    EXPECT_FALSE(ParsesAs(
        trip, EnvelopeFrame(trip, "locations", LocationList(cap + 1))))
        << (trip ? "trip" : "query") << " over the location cap";
  }
}

TEST(ProtocolTest, EveryStatsCounterSurvivesBothResponseDecoders) {
  QueryStats stats;
  stats.visited_trajectories = 1;
  stats.trajectory_hits = 2;
  stats.settled_vertices = 3;
  stats.heap_pops = 4;
  stats.heap_pushes = 5;
  stats.heap_decreases = 6;
  stats.heap_stale_pops = 7;
  stats.candidates = 8;
  stats.posting_entries = 9;
  stats.schedule_steps = 10;
  stats.bound_rebuilds = 11;
  stats.dcache_hits = 12;
  stats.dcache_replayed = 13;
  stats.dcache_published = 14;
  stats.oracle_lookups = 15;
  stats.oracle_pruned_candidates = 16;
  stats.elapsed_ms = 17.5;
  const auto expect_all = [&stats](const QueryStats& got, const char* kind) {
    EXPECT_EQ(got.visited_trajectories, stats.visited_trajectories) << kind;
    EXPECT_EQ(got.trajectory_hits, stats.trajectory_hits) << kind;
    EXPECT_EQ(got.settled_vertices, stats.settled_vertices) << kind;
    EXPECT_EQ(got.heap_pops, stats.heap_pops) << kind;
    EXPECT_EQ(got.heap_pushes, stats.heap_pushes) << kind;
    EXPECT_EQ(got.heap_decreases, stats.heap_decreases) << kind;
    EXPECT_EQ(got.heap_stale_pops, stats.heap_stale_pops) << kind;
    EXPECT_EQ(got.candidates, stats.candidates) << kind;
    EXPECT_EQ(got.posting_entries, stats.posting_entries) << kind;
    EXPECT_EQ(got.schedule_steps, stats.schedule_steps) << kind;
    EXPECT_EQ(got.bound_rebuilds, stats.bound_rebuilds) << kind;
    EXPECT_EQ(got.dcache_hits, stats.dcache_hits) << kind;
    EXPECT_EQ(got.dcache_replayed, stats.dcache_replayed) << kind;
    EXPECT_EQ(got.dcache_published, stats.dcache_published) << kind;
    EXPECT_EQ(got.oracle_lookups, stats.oracle_lookups) << kind;
    EXPECT_EQ(got.oracle_pruned_candidates, stats.oracle_pruned_candidates)
        << kind;
    EXPECT_EQ(got.elapsed_ms, stats.elapsed_ms) << kind;
  };

  QueryResponse query;
  query.has_stats = true;
  query.stats = stats;
  auto q = ParseQueryResponse(EncodeQueryResponse(query));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->has_stats);
  expect_all(q->stats, "query");

  TripResponse trip;
  trip.has_stats = true;
  trip.stats = stats;
  auto t = ParseTripResponse(EncodeTripResponse(trip));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(t->has_stats);
  expect_all(t->stats, "trip");
}

// --- JSON primitives used by the codecs ------------------------------------

TEST(JsonTest, ParsesNestedStructures) {
  auto v = ParseJson(R"({"a": [1, 2.5, "x", true, null], "b": {"c": -3}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array_items().size(), 5u);
  EXPECT_EQ(a->array_items()[1].number_value(), 2.5);
  const JsonValue* b = v->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->Find("c"), nullptr);
  EXPECT_EQ(b->Find("c")->number_value(), -3.0);
}

TEST(JsonTest, EscapesRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("s", JsonValue::Str("quote\" slash\\ tab\t newline\n unicode\x01"));
  auto parsed = ParseJson(obj.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("s")->string_value(),
            "quote\" slash\\ tab\t newline\n unicode\x01");
}

TEST(JsonTest, RejectsDeeplyNestedInput) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok()) << "depth cap missing";
}


// --- wire bytes --------------------------------------------------------------
//
// The response encoders write JSON directly; these goldens pin the exact
// bytes (field order, number rendering, escaping) that clients and
// --verify drills compare against.

const char kAwkwardText[] =
    "say \"hi\" \\ \x01\x1f\t\n caf\xc3\xa9 \xe2\x82\xac";
#define AWKWARD_JSON R"(say \"hi\" \\ \u0001\u001f\t\n café €)"

QueryStats GoldenStats() {
  QueryStats s;
  s.visited_trajectories = 123;
  s.trajectory_hits = 456;
  s.settled_vertices = 9007199254740993;  // counters print in full
  s.candidates = -1;
  s.oracle_lookups = 1000000;
  s.phase_ns[static_cast<int>(QueryPhase::kTextualFilter)] = 1723457;
  s.phase_ns[static_cast<int>(QueryPhase::kRefinement)] = 100;
  s.elapsed_ms = 0.1 + 0.2;
  return s;
}

#define GOLDEN_STATS_JSON                                                     \
  R"({"visited_trajectories": 123, "trajectory_hits": 456, )"                \
  R"("settled_vertices": 9007199254740993, "heap_pops": 0, )"                \
  R"("heap_pushes": 0, "heap_decreases": 0, "heap_stale_pops": 0, )"         \
  R"("candidates": -1, "posting_entries": 0, "schedule_steps": 0, )"         \
  R"("bound_rebuilds": 0, "dcache_hits": 0, "dcache_replayed": 0, )"         \
  R"("dcache_published": 0, "oracle_lookups": 1000000, )"                    \
  R"("oracle_pruned_candidates": 0, "elapsed_ms": 0.3, "phase_ms": )"        \
  R"({"textual_filter": 1.72346, "spatial_expansion": 0, )"                  \
  R"("bound_maintenance": 0, "scheduling": 0, "refinement": 0.0001, )"       \
  R"("trip_harvest": 0, "trip_assemble": 0}})"

QueryResponse GoldenQuery() {
  QueryResponse r;
  r.id = 9007199254740992;  // 2^53
  r.request_id = kAwkwardText;
  r.results.push_back(ScoredTrajectory{3, 0.1 + 0.2, 1.0 / 3.0, 5e-324});
  r.results.push_back(ScoredTrajectory{4294967295u, -0.0, 1e-5, 1e-4});
  r.results.push_back(
      ScoredTrajectory{0, 1e21, 9007199254740992.0, std::nan("")});
  r.results.push_back(ScoredTrajectory{7, HUGE_VAL, -HUGE_VAL, 1.0});
  r.has_stats = true;
  r.stats = GoldenStats();
  r.queue_wait_ms = 0.25;
  r.execute_ms = 3.75;
  return r;
}

#define GOLDEN_QUERY_HEAD                                                     \
  R"({"id":9007199254740992,"request_id":")" AWKWARD_JSON R"(",)"            \
  R"("status":"ok","results":[)"                                             \
  R"({"traj":3,"score":0.30000000000000004,"spatial":0.3333333333333333,)"   \
  R"("textual":4.94065645841247e-324},)"                                     \
  R"({"traj":4294967295,"score":-0,"spatial":1e-05,"textual":0.0001},)"      \
  R"({"traj":0,"score":1e+21,"spatial":9007199254740992,"textual":null},)"   \
  R"({"traj":7,"score":null,"spatial":null,"textual":1}])"

TEST(WireBytesTest, QueryResponseGolden) {
  QueryResponse r = GoldenQuery();
  EXPECT_EQ(EncodeQueryResponse(r),
            GOLDEN_QUERY_HEAD R"(,"stats":)" GOLDEN_STATS_JSON
            R"(,"server":{"queue_wait_ms":0.25,"execute_ms":3.75}})");

  // A cache hit: flagged, zero server timings, stats of the populating run.
  r.cached = true;
  r.queue_wait_ms = 0.0;
  r.execute_ms = 0.0;
  EXPECT_EQ(EncodeQueryResponse(r),
            GOLDEN_QUERY_HEAD R"(,"cached":true,"stats":)" GOLDEN_STATS_JSON
            R"(,"server":{"queue_wait_ms":0,"execute_ms":0}})");

  // No stats, no request id, no results.
  QueryResponse bare;
  bare.id = -3;
  EXPECT_EQ(EncodeQueryResponse(bare),
            R"({"id":-3,"status":"ok","results":[],)"
            R"("server":{"queue_wait_ms":0,"execute_ms":0}})");
}

TEST(WireBytesTest, TripResponseGolden) {
  TripResponse r;
  r.id = -9007199254740991;  // -(2^53 - 1)
  r.request_id = "cli-9";
  AssembledTrip t;
  t.score = 0.1 + 0.2;
  t.spatial_sim = 1.0 / 3.0;
  t.textual_sim = 1.0;
  t.connector_total_m = 812.5;
  t.segments.push_back(TripSegment{5, 2, 11, 40, 61, 120.5, 0.0});
  t.segments.push_back(
      TripSegment{4294967295u, 0, 4294967295u, 7, 8, 1e21, 5e-324});
  r.trips.push_back(t);
  r.trips.push_back(AssembledTrip{});
  r.has_stats = true;
  r.stats = GoldenStats();
  r.queue_wait_ms = 1e-5;
  r.execute_ms = 1e15;
  EXPECT_EQ(
      EncodeTripResponse(r),
      R"({"id":-9007199254740991,"request_id":"cli-9","status":"ok",)"
      R"("trips":[{"score":0.30000000000000004,"spatial":0.3333333333333333,)"
      R"("textual":1,"connector_m":812.5,"segments":[)"
      R"({"traj":5,"begin":2,"end":11,"entry":40,"exit":61,)"
      R"("loc_distance":120.5,"connector_m":0},)"
      R"({"traj":4294967295,"begin":0,"end":4294967295,"entry":7,"exit":8,)"
      R"("loc_distance":1e+21,"connector_m":4.94065645841247e-324}]},)"
      R"({"score":0,"spatial":0,"textual":0,"connector_m":0,"segments":[]}],)"
      R"("stats":)" GOLDEN_STATS_JSON
      R"(,"server":{"queue_wait_ms":1e-05,"execute_ms":1e+15}})");

  r.cached = true;
  r.trips.clear();
  r.has_stats = false;
  EXPECT_EQ(EncodeTripResponse(r),
            R"({"id":-9007199254740991,"request_id":"cli-9","status":"ok",)"
            R"("trips":[],"cached":true,)"
            R"("server":{"queue_wait_ms":1e-05,"execute_ms":1e+15}})");
}

TEST(WireBytesTest, IngestResponseGolden) {
  IngestResponse ok;
  ok.id = 9;
  ok.request_id = "cli-7";
  ok.accepted = 64;
  ok.first_traj = 15000;
  ok.generation = 3;
  ok.delta_trajectories = 128;
  EXPECT_EQ(EncodeIngestResponse(ok),
            R"({"id":9,"request_id":"cli-7","status":"ok","accepted":64,)"
            R"("first_traj":15000,"generation":3,"delta_trajectories":128})");

  IngestResponse err;
  err.status = ResponseStatus::kInvalidArgument;
  err.error = kAwkwardText;
  err.accepted = 5;  // never written on the error form
  EXPECT_EQ(EncodeIngestResponse(err),
            R"({"id":0,"status":"invalid_argument","error":")" AWKWARD_JSON
            R"(","retryable":false})");
}

TEST(WireBytesTest, RequestGoldens) {
  QueryRequest q;
  q.id = 42;
  q.request_id = kAwkwardText;
  q.query.locations = {7, 4294967295u, 3};
  q.query.keywords = KeywordSet({5, 2, 9});
  q.query.lambda = 0.1 + 0.2;
  q.query.k = 10;
  q.algorithm = AlgorithmKind::kBruteForce;
  q.has_algorithm = true;
  q.deadline_ms = 25.5;
  q.cache = CacheMode::kBypass;
  EXPECT_EQ(EncodeQueryRequest(q),
            R"({"id":42,"request_id":")" AWKWARD_JSON R"(",)"
            R"("locations":[7,4294967295,3],"keywords":[2,5,9],)"
            R"("lambda":0.30000000000000004,"k":10,"algorithm":"BF",)"
            R"("deadline_ms":25.5,"cache":"bypass"})");
  EXPECT_EQ(EncodeQueryRequest(QueryRequest{}),
            R"({"id":0,"locations":[],"keywords":[],"lambda":0.5,"k":1})");

  TripRequest t;
  t.id = -7;
  t.request_id = "cli-9";
  t.query.locations = {9, 2, 31};
  t.query.keywords = KeywordSet({17, 1});
  t.query.lambda = 1.0 / 3.0;
  t.query.k = 4;
  t.query.ordered = true;
  t.query.use_categories = true;
  t.query.gap_budget_m = 1250.5;
  t.query.segments_per_location = 12;
  t.query.window = 6;
  t.deadline_ms = 1e-5;
  t.cache = CacheMode::kBypass;
  EXPECT_EQ(EncodeTripRequest(t),
            R"({"id":-7,"type":"trip","request_id":"cli-9",)"
            R"("locations":[9,2,31],"keywords":[1,17],)"
            R"("lambda":0.3333333333333333,"k":4,"ordered":true,)"
            R"("categories":true,"gap_budget_m":1250.5,)"
            R"("segments_per_location":12,"window":6,"deadline_ms":1e-05,)"
            R"("cache":"bypass"})");
  EXPECT_EQ(EncodeTripRequest(TripRequest{}),
            R"({"id":0,"type":"trip","locations":[],"keywords":[],)"
            R"("lambda":0.5,"k":1,"segments_per_location":8,"window":4})");

  IngestRequest i;
  i.id = 9;
  i.request_id = "cli-7";
  Trajectory traj;
  traj.samples = {Sample{12, 3600}, Sample{13, 3660}};
  traj.keywords = KeywordSet({3, 15});
  i.trajectories = {traj, Trajectory{}};
  EXPECT_EQ(EncodeIngestRequest(i),
            R"({"id":9,"type":"ingest","request_id":"cli-7","trajectories":[)"
            R"({"samples":[[12,3600],[13,3660]],"keywords":[3,15]},)"
            R"({"samples":[],"keywords":[]}]})");
}

TEST(WireBytesTest, EveryErrorStatusGolden) {
  const struct {
    ResponseStatus status;
    const char* name;
    const char* retryable;
  } kCases[] = {
      {ResponseStatus::kParseError, "parse_error", "false"},
      {ResponseStatus::kInvalidArgument, "invalid_argument", "false"},
      {ResponseStatus::kOverloaded, "overloaded", "true"},
      {ResponseStatus::kDeadlineExceeded, "deadline_exceeded", "false"},
      {ResponseStatus::kShuttingDown, "shutting_down", "true"},
      {ResponseStatus::kInternal, "internal", "false"},
  };
  for (const auto& c : kCases) {
    QueryResponse q;
    q.id = 7;
    q.request_id = "s3-17";
    q.status = c.status;
    q.error = kAwkwardText;
    // Error replies carry no body, even when one was filled in.
    q.results.push_back(ScoredTrajectory{1, 0.5, 0.5, 0.5});
    q.has_stats = true;
    q.cached = true;
    const std::string expected =
        std::string(R"({"id":7,"request_id":"s3-17","status":")") + c.name +
        R"(","error":")" AWKWARD_JSON R"(","retryable":)" + c.retryable +
        "}";
    EXPECT_EQ(EncodeQueryResponse(q), expected) << c.name;

    TripResponse t;
    t.id = 7;
    t.request_id = "s3-17";
    t.status = c.status;
    t.error = kAwkwardText;
    t.trips.push_back(AssembledTrip{});
    EXPECT_EQ(EncodeTripResponse(t), expected) << c.name;

    IngestResponse i;
    i.id = 7;
    i.request_id = "s3-17";
    i.status = c.status;
    i.error = kAwkwardText;
    EXPECT_EQ(EncodeIngestResponse(i), expected) << c.name;
  }

  // Empty error and request id are omitted, not written empty.
  QueryResponse bare;
  bare.id = -9007199254740992;
  bare.status = ResponseStatus::kShuttingDown;
  EXPECT_EQ(EncodeQueryResponse(bare),
            R"({"id":-9007199254740992,"status":"shutting_down",)"
            R"("retryable":true})");

  // An id of 1e15 or more renders as the double formatter does.
  TripResponse te;
  te.id = 1000000000000000;
  te.request_id = kAwkwardText;
  te.status = ResponseStatus::kDeadlineExceeded;
  te.error = "deadline of 50.000000 ms exceeded";
  EXPECT_EQ(EncodeTripResponse(te),
            R"({"id":1e+15,"request_id":")" AWKWARD_JSON
            R"(","status":"deadline_exceeded",)"
            R"("error":"deadline of 50.000000 ms exceeded",)"
            R"("retryable":false})");
}

TEST(WireBytesTest, AwkwardDoublesGolden) {
  const struct {
    double v;
    const char* text;
  } kCases[] = {
      {0.1 + 0.2, "0.30000000000000004"},
      {1.0 / 3.0, "0.3333333333333333"},
      {5e-324, "4.94065645841247e-324"},
      {-0.0, "-0"},
      {0.0, "0"},
      {1e-5, "1e-05"},
      {1e-4, "0.0001"},
      {1e21, "1e+21"},
      {9007199254740992.0, "9007199254740992"},
      {-9007199254740993.0, "-9007199254740992"},
      {999999999999999.0, "999999999999999"},
      {1e15, "1e+15"},
      {-1e15, "-1e+15"},
      {123456789012345.6, "123456789012345.6"},
      {std::numeric_limits<double>::max(), "1.7976931348623157e+308"},
      {std::numeric_limits<double>::min(), "2.2250738585072014e-308"},
      {std::nan(""), "null"},
      {HUGE_VAL, "null"},
      {-HUGE_VAL, "null"},
  };
  for (const auto& c : kCases) {
    std::string out = "x";
    JsonAppendDouble(c.v, &out);
    EXPECT_EQ(out, std::string("x") + c.text);
  }
}

/// The formatter the wire used before std::to_chars: the shortest of
/// %.15g/%.16g/%.17g that strtod reads back exactly. Kept here as the
/// reference the current one must match byte for byte.
std::string ReferenceDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(WireBytesTest, DoubleSweepMatchesPrintfReference) {
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto from_bits = [](uint64_t bits) {
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  };
  constexpr int kDoubles = 1'000'000;
  int mismatches = 0;
  std::string out;
  for (int i = 0; i < kDoubles; ++i) {
    double v;
    switch (i % 8) {
      case 0:
      case 1:  // any bit pattern: NaNs, infinities, denormals, huge and tiny
        v = from_bits(rng());
        break;
      case 2:  // denormals of either sign
        v = from_bits((rng() & 0x800FFFFFFFFFFFFFull));
        break;
      case 3:  // similarity-shaped values in [0, 1)
        v = unit(rng);
        break;
      case 4: {  // integers near 1e15 and 2^53, and their binary fractions
        const int64_t n =
            static_cast<int64_t>(rng() % 40'000'000'000'000'000ull) -
            20'000'000'000'000'000ll;
        v = std::ldexp(static_cast<double>(n), -static_cast<int>(rng() % 40));
        break;
      }
      case 5:  // short decimals, the case the 15-digit try exists for
        v = static_cast<double>(static_cast<int64_t>(rng() % 2'000'000) -
                                1'000'000) /
            std::pow(10.0, static_cast<double>(rng() % 12));
        break;
      case 6:  // wide exponent range, one binade at a time
        v = std::ldexp(1.0 + unit(rng), static_cast<int>(rng() % 2100) - 1075);
        break;
      default:  // small integers (ids, counts)
        v = static_cast<double>(static_cast<int64_t>(rng() % 20'000'000) -
                                10'000'000);
        break;
    }
    out.clear();
    JsonAppendDouble(v, &out);
    const std::string ref = ReferenceDouble(v);
    if (out != ref && ++mismatches <= 10) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      ADD_FAILURE() << "bits 0x" << std::hex << bits << ": got " << out
                    << ", reference " << ref;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace uots
