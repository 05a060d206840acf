// Admin-plane unit tests: the HTTP/1.0 request parser, response encoding,
// the slow-query log's ring semantics, and the Prometheus text helpers
// used by both the exporter and the scrape client.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "server/admin.h"
#include "server/http.h"

namespace uots {
namespace {

using promtext::DeltaQuantileSeconds;
using promtext::FindValue;
using promtext::HistogramBucket;
using promtext::ParseHistogramBuckets;

HttpRequestParser::Next Feed(HttpRequestParser* p, const std::string& bytes,
                             HttpRequest* out) {
  p->Append(bytes.data(), bytes.size());
  return p->Poll(out);
}

TEST(HttpParser, CompleteGetWithQueryString) {
  HttpRequestParser p;
  HttpRequest req;
  ASSERT_EQ(Feed(&p, "GET /tracing?sample=16&x=y HTTP/1.0\r\n"
                     "Host: localhost\r\n\r\n",
                 &req),
            HttpRequestParser::Next::kRequest);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/tracing");
  EXPECT_EQ(req.query, "sample=16&x=y");
  EXPECT_EQ(req.QueryParam("sample"), "16");
  EXPECT_EQ(req.QueryParam("x"), "y");
  EXPECT_EQ(req.QueryParam("absent"), "");
}

TEST(HttpParser, PathWithoutQueryString) {
  HttpRequestParser p;
  HttpRequest req;
  ASSERT_EQ(Feed(&p, "GET /metrics HTTP/1.1\r\n\r\n", &req),
            HttpRequestParser::Next::kRequest);
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.query, "");
}

TEST(HttpParser, IncrementalFeeding) {
  HttpRequestParser p;
  HttpRequest req;
  EXPECT_EQ(Feed(&p, "GET /hea", &req), HttpRequestParser::Next::kNeedMore);
  EXPECT_EQ(Feed(&p, "lthz HTTP/1.0\r\nUser-Agent: probe\r\n", &req),
            HttpRequestParser::Next::kNeedMore);
  ASSERT_EQ(Feed(&p, "\r\n", &req), HttpRequestParser::Next::kRequest);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/healthz");
}

TEST(HttpParser, RejectsGarbage) {
  // A query-protocol client connecting to the admin port sends a binary
  // length prefix — no spaces, no HTTP/ marker.
  HttpRequestParser p;
  HttpRequest req;
  EXPECT_EQ(Feed(&p, std::string("\x00\x00\x01\x40garbage", 11) + "\r\n\r\n",
                 &req),
            HttpRequestParser::Next::kBad);
}

TEST(HttpParser, RejectsMissingSpaces) {
  HttpRequestParser p;
  HttpRequest req;
  EXPECT_EQ(Feed(&p, "GET/metrics HTTP/1.0\r\n\r\n", &req),
            HttpRequestParser::Next::kBad);
}

TEST(HttpParser, RejectsNonSlashTarget) {
  HttpRequestParser p;
  HttpRequest req;
  EXPECT_EQ(Feed(&p, "GET metrics HTTP/1.0\r\n\r\n", &req),
            HttpRequestParser::Next::kBad);
}

TEST(HttpParser, RejectsNonHttpVersion) {
  HttpRequestParser p;
  HttpRequest req;
  EXPECT_EQ(Feed(&p, "GET /metrics SPDY/3\r\n\r\n", &req),
            HttpRequestParser::Next::kBad);
}

TEST(HttpParser, RejectsOversizedHeaderBlock) {
  HttpRequestParser p(256);
  HttpRequest req;
  std::string huge = "GET /metrics HTTP/1.0\r\nX-Pad: ";
  huge.append(512, 'a');
  // No terminator yet, but the buffer already exceeds the cap.
  EXPECT_EQ(Feed(&p, huge, &req), HttpRequestParser::Next::kTooLarge);
}

TEST(HttpParser, RejectsOversizedTerminatedHeaderBlock) {
  HttpRequestParser p(128);
  HttpRequest req;
  std::string huge = "GET /metrics HTTP/1.0\r\nX-Pad: ";
  huge.append(200, 'a');
  huge += "\r\n\r\n";
  EXPECT_EQ(Feed(&p, huge, &req), HttpRequestParser::Next::kTooLarge);
}

TEST(HttpEncode, ResponseShape) {
  const std::string resp = EncodeHttpResponse(200, "text/plain", "ok\n");
  EXPECT_EQ(resp.find("HTTP/1.0 200 OK\r\n"), 0u);
  EXPECT_NE(resp.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 7), "\r\n\r\nok\n");
}

TEST(HttpEncode, StatusTexts) {
  EXPECT_STREQ(HttpStatusText(200), "OK");
  EXPECT_STREQ(HttpStatusText(404), "Not Found");
  EXPECT_STREQ(HttpStatusText(431), "Request Header Fields Too Large");
  EXPECT_STREQ(HttpStatusText(503), "Service Unavailable");
}

SlowLogEntry Entry(const std::string& id, double total_ms) {
  SlowLogEntry e;
  e.request_id = id;
  e.total_ms = total_ms;
  return e;
}

TEST(SlowQueryLog, RecentIsNewestFirstAndBounded) {
  SlowQueryLog log(/*recent_capacity=*/3, /*slowest_capacity=*/8);
  for (int i = 1; i <= 5; ++i) {
    log.Add(Entry("r" + std::to_string(i), static_cast<double>(i)));
  }
  EXPECT_EQ(log.added(), 5);
  ASSERT_EQ(log.recent().size(), 3u);
  EXPECT_EQ(log.recent()[0].request_id, "r5");
  EXPECT_EQ(log.recent()[1].request_id, "r4");
  EXPECT_EQ(log.recent()[2].request_id, "r3");
}

TEST(SlowQueryLog, SlowestIsSortedDescending) {
  SlowQueryLog log(8, 8);
  for (const double ms : {3.0, 9.0, 1.0, 7.0}) {
    log.Add(Entry("q", ms));
  }
  ASSERT_EQ(log.slowest().size(), 4u);
  EXPECT_DOUBLE_EQ(log.slowest()[0].total_ms, 9.0);
  EXPECT_DOUBLE_EQ(log.slowest()[1].total_ms, 7.0);
  EXPECT_DOUBLE_EQ(log.slowest()[2].total_ms, 3.0);
  EXPECT_DOUBLE_EQ(log.slowest()[3].total_ms, 1.0);
}

TEST(SlowQueryLog, SlowestEvictsTheMinimumWhenFull) {
  SlowQueryLog log(2, /*slowest_capacity=*/3);
  for (const double ms : {5.0, 2.0, 8.0}) log.Add(Entry("q", ms));
  // 1.0 is faster than everything retained: dropped.
  log.Add(Entry("fast", 1.0));
  ASSERT_EQ(log.slowest().size(), 3u);
  EXPECT_DOUBLE_EQ(log.slowest()[2].total_ms, 2.0);
  // 6.0 displaces the current minimum (2.0).
  log.Add(Entry("mid", 6.0));
  ASSERT_EQ(log.slowest().size(), 3u);
  EXPECT_DOUBLE_EQ(log.slowest()[0].total_ms, 8.0);
  EXPECT_DOUBLE_EQ(log.slowest()[1].total_ms, 6.0);
  EXPECT_DOUBLE_EQ(log.slowest()[2].total_ms, 5.0);
}

const char kExposition[] =
    "# HELP uots_server_requests_total Total requests.\n"
    "# TYPE uots_server_requests_total counter\n"
    "uots_server_requests_total 300\n"
    "uots_server_responses_ok_total 297\n"
    "uots_lat_seconds_bucket{le=\"0.001\"} 10\n"
    "uots_lat_seconds_bucket{le=\"0.01\"} 90\n"
    "uots_lat_seconds_bucket{le=\"0.1\"} 99\n"
    "uots_lat_seconds_bucket{le=\"+Inf\"} 100\n"
    "uots_lat_seconds_sum 0.42\n"
    "uots_lat_seconds_count 100\n";

TEST(Promtext, FindValue) {
  double v = 0.0;
  ASSERT_TRUE(FindValue(kExposition, "uots_server_requests_total", &v));
  EXPECT_DOUBLE_EQ(v, 300.0);
  ASSERT_TRUE(FindValue(kExposition, "uots_lat_seconds_count", &v));
  EXPECT_DOUBLE_EQ(v, 100.0);
  // Exact-prefix match: the bare family name must not match bucket lines,
  // and comments are skipped.
  EXPECT_FALSE(FindValue(kExposition, "uots_lat_seconds", &v));
  EXPECT_FALSE(FindValue(kExposition, "uots_server_requests", &v));
  EXPECT_FALSE(FindValue(kExposition, "absent_series", &v));
}

TEST(Promtext, ParseHistogramBuckets) {
  const auto buckets = ParseHistogramBuckets(kExposition, "uots_lat_seconds");
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(buckets[0].le_seconds, 0.001);
  EXPECT_EQ(buckets[0].cumulative, 10);
  EXPECT_EQ(buckets[2].cumulative, 99);
  EXPECT_TRUE(std::isinf(buckets[3].le_seconds));
  EXPECT_EQ(buckets[3].cumulative, 100);
  EXPECT_TRUE(ParseHistogramBuckets(kExposition, "no_such_family").empty());
}

std::vector<HistogramBucket> Buckets(
    std::vector<std::pair<double, int64_t>> raw) {
  std::vector<HistogramBucket> out;
  for (const auto& [le, cum] : raw) out.push_back({le, cum});
  return out;
}

TEST(Promtext, DeltaQuantileNearestRank) {
  const auto before = Buckets({{0.001, 5}, {0.01, 5}, {0.1, 5},
                               {std::numeric_limits<double>::infinity(), 5}});
  // Window: 10 samples <= 1ms, 80 in (1ms, 10ms], 10 in (10ms, 100ms].
  const auto after = Buckets({{0.001, 15}, {0.01, 95}, {0.1, 105},
                              {std::numeric_limits<double>::infinity(), 105}});
  EXPECT_DOUBLE_EQ(DeltaQuantileSeconds(before, after, 50), 0.01);
  EXPECT_DOUBLE_EQ(DeltaQuantileSeconds(before, after, 5), 0.001);
  EXPECT_DOUBLE_EQ(DeltaQuantileSeconds(before, after, 99), 0.1);
  EXPECT_DOUBLE_EQ(DeltaQuantileSeconds(before, after, 100), 0.1);
}

TEST(Promtext, DeltaQuantileEmptyBeforeIsZeroBaseline) {
  // First scrape before any request: the family does not exist yet, so
  // "before" parses to an empty vector — treated as all-zero counts.
  const auto after = Buckets({{0.001, 4}, {0.01, 8},
                              {std::numeric_limits<double>::infinity(), 8}});
  EXPECT_DOUBLE_EQ(DeltaQuantileSeconds({}, after, 50), 0.001);
  EXPECT_DOUBLE_EQ(DeltaQuantileSeconds({}, after, 95), 0.01);
}

TEST(Promtext, DeltaQuantileDegenerateWindows) {
  const auto a = Buckets({{0.001, 7},
                          {std::numeric_limits<double>::infinity(), 7}});
  // No samples in the window.
  EXPECT_TRUE(std::isnan(DeltaQuantileSeconds(a, a, 50)));
  // No "after" scrape at all.
  EXPECT_TRUE(std::isnan(DeltaQuantileSeconds(a, {}, 50)));
  // Mismatched ladders (family re-defined between scrapes).
  const auto other = Buckets({{0.005, 9},
                              {std::numeric_limits<double>::infinity(), 9}});
  EXPECT_TRUE(std::isnan(DeltaQuantileSeconds(a, other, 50)));
  const auto three = Buckets({{0.001, 1}, {0.005, 9},
                              {std::numeric_limits<double>::infinity(), 9}});
  EXPECT_TRUE(std::isnan(DeltaQuantileSeconds(a, three, 50)));
}

}  // namespace
}  // namespace uots
