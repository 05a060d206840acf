// Loopback integration tests: a real UotsServer on an ephemeral port, real
// BlockingClients over TCP. Covers the acceptance criteria end to end:
// bit-for-bit equivalence with in-process RunQuery, concurrent clients,
// admission-control overload, per-request deadlines, protocol robustness
// against malformed/oversized frames, and graceful shutdown.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/distance_field_cache.h"
#include "core/batch.h"
#include "core/workload.h"
#include "net/generators.h"
#include "oracle/ch_oracle.h"
#include "server/client.h"
#include "server/http.h"
#include "server/json.h"
#include "server/server.h"
#include "traj/generator.h"
#include "trip/workload.h"

namespace uots {
namespace {

/// The network every MakeTestDb database is built on.
RoadNetwork MakeTestNetwork() {
  GridNetworkOptions net_opts;
  net_opts.rows = 18;
  net_opts.cols = 18;
  net_opts.seed = 21;
  auto network = MakeGridNetwork(net_opts);
  EXPECT_TRUE(network.ok());
  return std::move(*network);
}

std::unique_ptr<TrajectoryDatabase> MakeTestDb() {
  RoadNetwork network = MakeTestNetwork();
  TripGeneratorOptions trip_opts;
  trip_opts.num_trajectories = 250;
  trip_opts.vocabulary_size = 120;
  trip_opts.seed = 22;
  auto trips = GenerateTrips(network, trip_opts);
  EXPECT_TRUE(trips.ok());
  return std::make_unique<TrajectoryDatabase>(std::move(network),
                                              std::move(trips->store),
                                              std::move(trips->vocabulary));
}

/// Server + loop thread with RAII shutdown, bound to an ephemeral port.
class ServerFixture {
 public:
  explicit ServerFixture(const TrajectoryDatabase& db,
                         ServerOptions opts = {}) {
    opts.port = 0;  // ephemeral: tests must never collide on a fixed port
    server_ = std::make_unique<UotsServer>(db, opts);
    Status st = server_->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    thread_ = std::thread([this] { server_->Run(); });
  }

  ~ServerFixture() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
    }
  }

  uint16_t port() const { return server_->port(); }
  UotsServer& server() { return *server_; }

 private:
  std::unique_ptr<UotsServer> server_;
  std::thread thread_;
};

std::vector<UotsQuery> MakeQueries(const TrajectoryDatabase& db, int n) {
  WorkloadOptions wopts;
  wopts.num_queries = n;
  wopts.num_locations = 4;
  wopts.k = 5;
  wopts.seed = 33;
  auto queries = MakeWorkload(db, wopts);
  EXPECT_TRUE(queries.ok());
  return std::move(*queries);
}

TEST(ServerIntegrationTest, ResultsMatchInProcessBitForBit) {
  auto db = MakeTestDb();
  ServerFixture fx(*db);
  const auto queries = MakeQueries(*db, 12);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  for (AlgorithmKind kind :
       {AlgorithmKind::kUots, AlgorithmKind::kBruteForce,
        AlgorithmKind::kTextFirst}) {
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRequest req;
      req.id = static_cast<int64_t>(i);
      req.query = queries[i];
      req.algorithm = kind;
      req.has_algorithm = true;
      auto remote = client.Call(req);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      ASSERT_TRUE(remote->ok()) << remote->error;
      EXPECT_EQ(remote->id, static_cast<int64_t>(i));

      QueryOptions local_opts;
      local_opts.algorithm = kind;
      auto local = RunQuery(*db, queries[i], local_opts);
      ASSERT_TRUE(local.ok());

      ASSERT_EQ(remote->results.size(), local->items.size())
          << ToString(kind) << " query " << i;
      for (size_t j = 0; j < local->items.size(); ++j) {
        EXPECT_EQ(remote->results[j].id, local->items[j].id);
        // Bitwise equality, not near-equality: the wire protocol's doubles
        // must survive the round trip exactly.
        EXPECT_EQ(remote->results[j].score, local->items[j].score);
        EXPECT_EQ(remote->results[j].spatial_sim, local->items[j].spatial_sim);
        EXPECT_EQ(remote->results[j].textual_sim, local->items[j].textual_sim);
      }
      EXPECT_TRUE(remote->has_stats);
    }
  }
}

TEST(ServerIntegrationTest, ConcurrentClientsAllGetCorrectAnswers) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.threads = 4;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 8);

  // Precompute expected answers in-process.
  std::vector<std::vector<ScoredTrajectory>> expected;
  for (const auto& q : queries) {
    auto local = RunQuery(*db, q);
    ASSERT_TRUE(local.ok());
    expected.push_back(local->items);
  }

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", fx.port()).ok()) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const size_t qi = static_cast<size_t>(t + r) % queries.size();
        QueryRequest req;
        req.id = t * 1000 + r;
        req.query = queries[qi];
        auto resp = client.Call(req);
        if (!resp.ok() || !resp->ok() || resp->id != t * 1000 + r ||
            resp->results.size() != expected[qi].size()) {
          ++failures;
          continue;
        }
        for (size_t j = 0; j < expected[qi].size(); ++j) {
          if (resp->results[j].id != expected[qi][j].id ||
              resp->results[j].score != expected[qi][j].score) {
            ++failures;
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerIntegrationTest, PipelinedRequestsAnswerInOrder) {
  auto db = MakeTestDb();
  ServerFixture fx(*db);
  const auto queries = MakeQueries(*db, 5);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  // Queue every request before reading a single response.
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest req;
    req.id = static_cast<int64_t>(100 + i);
    req.query = queries[i];
    ASSERT_TRUE(client.Send(req).ok());
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->id, static_cast<int64_t>(100 + i))
        << "responses out of order";
    EXPECT_TRUE(resp->ok());
  }
}

TEST(ServerIntegrationTest, CacheHitWaitsBehindEarlierMissOnItsConnection) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.cache_max_entries = 64;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 2);

  // Put the query the hit repeats into the result cache.
  QueryRequest hit;
  hit.id = 2;
  hit.query = queries[1];
  {
    BlockingClient warm;
    ASSERT_TRUE(warm.Connect("127.0.0.1", fx.port()).ok());
    auto resp = warm.Call(hit);
    ASSERT_TRUE(resp.ok() && resp->ok());
  }

  // A brute-force miss, then the hit, in one send(): the reactor reads both
  // frames in one pass, answers the hit on the spot and the miss only once
  // a worker has run it. The hit's reply must still come second.
  QueryRequest miss;
  miss.id = 1;
  miss.query = queries[0];
  miss.algorithm = AlgorithmKind::kBruteForce;
  miss.has_algorithm = true;
  miss.cache = CacheMode::kBypass;
  std::string wire;
  AppendFrame(EncodeQueryRequest(miss), &wire);
  AppendFrame(EncodeQueryRequest(hit), &wire);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  FrameDecoder dec;
  std::vector<QueryResponse> replies;
  char buf[4096];
  while (replies.size() < 2) {
    std::string payload;
    if (dec.Poll(&payload) == FrameDecoder::Next::kFrame) {
      auto resp = ParseQueryResponse(payload);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      replies.push_back(std::move(*resp));
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection closed before both replies";
    dec.Append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(replies[0].id, 1) << "the cache hit overtook the earlier miss";
  EXPECT_FALSE(replies[0].cached);
  EXPECT_EQ(replies[1].id, 2);
  EXPECT_TRUE(replies[1].cached);
  EXPECT_TRUE(replies[0].ok() && replies[1].ok());
}

TEST(ServerIntegrationTest, MalformedFrameGetsErrorAndConnectionSurvives) {
  auto db = MakeTestDb();
  ServerFixture fx(*db);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  QueryRequest good;
  good.id = 1;
  good.query = queries[0];

  // BlockingClient only sends well-formed requests, so drive the malformed
  // frame through a raw socket.
  struct RawConn {
    int fd = -1;
    ~RawConn() {
      if (fd >= 0) ::close(fd);
    }
  };
  RawConn raw;
  raw.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw.fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(raw.fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string bad_frame = EncodeFrame("{not json");
  ASSERT_EQ(::send(raw.fd, bad_frame.data(), bad_frame.size(), 0),
            static_cast<ssize_t>(bad_frame.size()));
  // Read the error response frame off the raw socket.
  FrameDecoder dec;
  std::string payload;
  char buf[4096];
  for (;;) {
    if (dec.Poll(&payload) == FrameDecoder::Next::kFrame) break;
    const ssize_t n = ::recv(raw.fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server dropped the connection on malformed JSON";
    dec.Append(buf, static_cast<size_t>(n));
  }
  auto err = ParseQueryResponse(payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->status, ResponseStatus::kParseError);

  // Same raw connection: a valid request must still be served.
  const std::string good_frame = EncodeFrame(EncodeQueryRequest(good));
  ASSERT_EQ(::send(raw.fd, good_frame.data(), good_frame.size(), 0),
            static_cast<ssize_t>(good_frame.size()));
  for (;;) {
    if (dec.Poll(&payload) == FrameDecoder::Next::kFrame) break;
    const ssize_t n = ::recv(raw.fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection did not survive the malformed frame";
    dec.Append(buf, static_cast<size_t>(n));
  }
  auto ok_resp = ParseQueryResponse(payload);
  ASSERT_TRUE(ok_resp.ok());
  EXPECT_TRUE(ok_resp->ok()) << ok_resp->error;

  // And the unrelated client was never disturbed.
  auto main_resp = client.Call(good);
  ASSERT_TRUE(main_resp.ok());
  EXPECT_TRUE(main_resp->ok());
}

TEST(ServerIntegrationTest, OversizedFrameGetsErrorAndConnectionSurvives) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.max_frame_bytes = 256;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  // A request whose JSON blows past 256 bytes: pad the keyword list.
  QueryRequest big;
  big.id = 5;
  big.query = queries[0];
  std::vector<TermId> many;
  for (TermId t = 0; t < 300; ++t) many.push_back(t);
  big.query.keywords = KeywordSet(std::move(many));
  ASSERT_GT(EncodeQueryRequest(big).size(), 256u);

  ASSERT_TRUE(client.Send(big).ok());
  auto err = client.Receive();
  ASSERT_TRUE(err.ok()) << "server dropped the connection on oversize";
  EXPECT_EQ(err->status, ResponseStatus::kParseError);

  // The connection resynchronized: a small request still succeeds.
  QueryRequest good;
  good.id = 6;
  good.query = queries[0];
  auto resp = client.Call(good);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok()) << resp->error;
  EXPECT_EQ(resp->id, 6);
}

TEST(ServerIntegrationTest, OverloadRejectsWithRetryableStatus) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.threads = 1;
  opts.service.max_inflight = 1;  // one admitted request at a time
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 4);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  // Burst: pipeline far more than the server may admit. With capacity 1,
  // at least one request must be rejected as overloaded, and every frame
  // still gets exactly one response (nothing is silently dropped).
  constexpr int kBurst = 24;
  for (int i = 0; i < kBurst; ++i) {
    QueryRequest req;
    req.id = i;
    req.query = queries[static_cast<size_t>(i) % queries.size()];
    ASSERT_TRUE(client.Send(req).ok());
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp->ok()) {
      ++ok;
    } else {
      ASSERT_EQ(resp->status, ResponseStatus::kOverloaded);
      EXPECT_TRUE(resp->retryable());
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GE(ok, 1) << "admission rejected everything";
  EXPECT_GE(overloaded, 1) << "burst of 24 at capacity 1 never overloaded";
}

TEST(ServerIntegrationTest, DeadlineExceededReturnsTimeoutNotHang) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.threads = 1;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 2);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  // An absurdly small deadline: the response must be a prompt timeout.
  QueryRequest req;
  req.id = 77;
  req.query = queries[0];
  req.algorithm = AlgorithmKind::kBruteForce;  // slowest engine
  req.has_algorithm = true;
  req.deadline_ms = 0.01;
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(resp->id, 77);

  // The connection is still usable for a normal request afterwards.
  QueryRequest good;
  good.id = 78;
  good.query = queries[1];
  auto resp2 = client.Call(good);
  ASSERT_TRUE(resp2.ok());
  EXPECT_TRUE(resp2->ok()) << resp2->error;
}

TEST(ServerIntegrationTest, CachedRepeatIsBitIdenticalAndFlagged) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.cache_max_entries = 64;
  opts.service.uots.distance_cache = std::make_shared<DistanceFieldCache>();
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 4);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  for (size_t i = 0; i < queries.size(); ++i) {
    QueryOptions local_opts;
    auto local = RunQuery(*db, queries[i], local_opts);
    ASSERT_TRUE(local.ok());

    QueryRequest req;
    req.id = static_cast<int64_t>(i * 2);
    req.query = queries[i];
    auto first = client.Call(req);
    ASSERT_TRUE(first.ok() && first->ok());
    EXPECT_FALSE(first->cached) << "first sighting cannot be a cache hit";

    req.id = static_cast<int64_t>(i * 2 + 1);
    auto second = client.Call(req);
    ASSERT_TRUE(second.ok() && second->ok());
    EXPECT_TRUE(second->cached) << "identical repeat must hit the cache";
    EXPECT_TRUE(second->has_stats);

    // Both answers match the in-process run bit for bit.
    for (const auto* resp : {&first.value(), &second.value()}) {
      ASSERT_EQ(resp->results.size(), local->items.size());
      for (size_t j = 0; j < local->items.size(); ++j) {
        EXPECT_EQ(resp->results[j].id, local->items[j].id);
        EXPECT_EQ(resp->results[j].score, local->items[j].score);
        EXPECT_EQ(resp->results[j].spatial_sim, local->items[j].spatial_sim);
        EXPECT_EQ(resp->results[j].textual_sim, local->items[j].textual_sim);
      }
    }
  }
  fx.Stop();
  EXPECT_EQ(fx.server().counters().cache_hits,
            static_cast<int64_t>(queries.size()));
}

TEST(ServerIntegrationTest, BypassSkipsTheResultCache) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.cache_max_entries = 64;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  QueryRequest req;
  req.id = 1;
  req.query = queries[0];
  auto warm = client.Call(req);  // populates the cache
  ASSERT_TRUE(warm.ok() && warm->ok());

  req.id = 2;
  req.cache = CacheMode::kBypass;
  auto bypass = client.Call(req);
  ASSERT_TRUE(bypass.ok() && bypass->ok());
  EXPECT_FALSE(bypass->cached) << "bypass must recompute";
  // Recomputation agrees with the cached answer bit for bit.
  ASSERT_EQ(bypass->results.size(), warm->results.size());
  for (size_t j = 0; j < warm->results.size(); ++j) {
    EXPECT_EQ(bypass->results[j].id, warm->results[j].id);
    EXPECT_EQ(bypass->results[j].score, warm->results[j].score);
  }

  req.id = 3;
  req.cache = CacheMode::kDefault;
  auto hit = client.Call(req);
  ASSERT_TRUE(hit.ok() && hit->ok());
  EXPECT_TRUE(hit->cached) << "the entry must still be there after a bypass";
}

TEST(ServerIntegrationTest, EvictionCycleStaysCorrect) {
  auto db = MakeTestDb();
  ServerOptions opts;
  // A one-entry, one-shard cache: alternating two queries evicts on every
  // request, exercising the insert/evict/lookup cycle end to end.
  opts.service.cache_max_entries = 1;
  opts.service.cache_shards = 1;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 2);

  std::vector<std::vector<ScoredTrajectory>> expected;
  for (const auto& q : queries) {
    auto local = RunQuery(*db, q);
    ASSERT_TRUE(local.ok());
    expected.push_back(local->items);
  }

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  int64_t id = 0;
  for (int round = 0; round < 3; ++round) {
    for (size_t qi = 0; qi < 2; ++qi) {
      QueryRequest req;
      req.id = ++id;
      req.query = queries[qi];
      auto resp = client.Call(req);
      ASSERT_TRUE(resp.ok() && resp->ok());
      EXPECT_FALSE(resp->cached) << "evicted entry served as a hit";
      ASSERT_EQ(resp->results.size(), expected[qi].size());
      for (size_t j = 0; j < expected[qi].size(); ++j) {
        EXPECT_EQ(resp->results[j].id, expected[qi][j].id);
        EXPECT_EQ(resp->results[j].score, expected[qi][j].score);
      }
    }
  }
  // Back-to-back repeats of the same query DO hit the surviving entry.
  QueryRequest req;
  req.id = ++id;
  req.query = queries[1];
  auto repeat = client.Call(req);
  ASSERT_TRUE(repeat.ok() && repeat->ok());
  EXPECT_TRUE(repeat->cached);

  ASSERT_NE(fx.server().service().result_cache(), nullptr);
  const ResultCache::Stats s = fx.server().service().result_cache()->stats();
  EXPECT_GE(s.evictions, 5);
  EXPECT_EQ(s.entries, 1);
}

TEST(ServerIntegrationTest, GracefulShutdownDrainsAndStops) {
  auto db = MakeTestDb();
  ServerFixture fx(*db);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 1;
  req.query = queries[0];
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->ok());

  fx.Stop();  // RequestShutdown + join: must terminate, not hang

  // New connections are refused after shutdown.
  BlockingClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", fx.port()).ok());
  EXPECT_EQ(fx.server().counters().responses_ok, 1);
}

TEST(ServerIntegrationTest, StartRejectsOutOfRangeTimeouts) {
  // Every ms option becomes int64 nanoseconds; one past kMaxDeadlineMs, or
  // below zero, must fail Start() instead of reaching that conversion.
  auto db = MakeTestDb();
  ServerOptions huge_deadline;
  huge_deadline.service.default_deadline_ms = 1e13;
  ServerOptions negative_idle;
  negative_idle.idle_timeout_ms = -1;
  for (const ServerOptions& opts : {huge_deadline, negative_idle}) {
    UotsServer server(*db, opts);
    const Status st = server.Start();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
  ServerOptions at_bound;
  at_bound.service.default_deadline_ms = kMaxDeadlineMs;
  UotsServer server(*db, at_bound);
  EXPECT_TRUE(server.Start().ok());
}

TEST(ServerIntegrationTest, ShutdownFoldCountsAndTimesItsCompaction) {
  // Stopping with an unflushed delta folds it into the compaction snapshot
  // on the way out. That fold is a compaction like a background one: it is
  // counted and its build time lands in compact_build.
  auto db = MakeTestDb();
  TripGeneratorOptions trip_opts;
  trip_opts.num_trajectories = 20;
  trip_opts.vocabulary_size = 120;
  trip_opts.seed = 23;
  auto extra = GenerateTrips(MakeTestNetwork(), trip_opts);
  ASSERT_TRUE(extra.ok());
  IngestRequest ireq;
  ireq.id = 1;
  for (size_t i = 0; i < extra->store.size(); ++i) {
    ireq.trajectories.push_back(
        extra->store.Materialize(static_cast<TrajId>(i)));
  }

  const std::string snap_path =
      ::testing::TempDir() + "uots-shutdown-fold.snap";
  ServerOptions opts;
  opts.compact_snapshot_path = snap_path;
  ServerFixture fx(*db, opts);
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  auto iresp = client.Call(ireq);
  ASSERT_TRUE(iresp.ok() && iresp->ok()) << iresp.status().ToString();

  fx.Stop();  // RequestShutdown + join: the drain folds the delta
  EXPECT_EQ(fx.server().counters().compactions, 1);
  EXPECT_EQ(fx.server().histograms().compact_build.count(), 1);
  std::remove(snap_path.c_str());
}

TEST(ServerIntegrationTest, RequestsDuringDrainGetShuttingDown) {
  auto db = MakeTestDb();
  ServerFixture fx(*db);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  // Make sure the connection is established server-side first.
  QueryRequest warm;
  warm.id = 0;
  warm.query = queries[0];
  ASSERT_TRUE(client.Call(warm).ok());

  // Race a request against shutdown: the server may answer ok (if it ran
  // before the drain flag), answer shutting_down, or close the connection
  // (if drain finished first) — but it must never hang.
  QueryRequest req;
  req.id = 1;
  req.query = queries[0];
  ASSERT_TRUE(client.Send(req).ok());
  fx.server().RequestShutdown();
  auto resp = client.Receive();
  if (resp.ok()) {
    EXPECT_TRUE(resp->ok() || resp->status == ResponseStatus::kShuttingDown)
        << ToString(resp->status);
  }
  fx.Stop();
}

// --- idle timeouts ---------------------------------------------------------

/// A plain TCP connection to the query port (BlockingClient cannot watch
/// for the server closing a connection it has sent nothing on).
int ConnectRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

/// True once the peer closes `fd` (recv returns 0) within `timeout_ms`.
bool PeerClosesWithin(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) != 1) return false;
  char byte;
  return ::recv(fd, &byte, 1, 0) == 0;
}

TEST(ServerIntegrationTest, IdleConnectionIsClosedAfterTheTimeout) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.idle_timeout_ms = 100.0;
  ServerFixture fx(*db, opts);

  const auto start = std::chrono::steady_clock::now();
  const int fd = ConnectRaw(fx.port());
  EXPECT_TRUE(PeerClosesWithin(fd, 10000)) << "idle connection never closed";
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_GE(waited_ms, opts.idle_timeout_ms) << "closed before the timeout";
  ::close(fd);
}

TEST(ServerIntegrationTest, ReadsKeepAConnectionOpenPastSeveralTimeouts) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.idle_timeout_ms = 300.0;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  // One request every timeout/3 for four timeouts: each read pushes the
  // idle deadline out, so every call finds the connection open.
  for (int i = 0; i < 12; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    QueryRequest req;
    req.id = i;
    req.query = queries[0];
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.ok()) << "call " << i << ": " << resp.status().ToString();
    EXPECT_TRUE(resp->ok()) << resp->error;
  }
}

TEST(ServerIntegrationTest, RequestInFlightKeepsAnIdleConnectionOpen) {
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.idle_timeout_ms = 50.0;
  opts.service.threads = 1;
  std::atomic<bool> released{false};
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 1);

  // Occupy the only worker until released, so the wire request below stays
  // admitted and queued (in flight) across several idle timeouts. The guard
  // releases it on every exit path: a blocked worker would hang teardown.
  struct Release {
    std::atomic<bool>* flag;
    ~Release() { *flag = true; }
  } release{&released};
  ASSERT_TRUE(fx.server().service().TryExecute(
      queries[0], AlgorithmKind::kUots, nullptr, [&released](ExecutionResult) {
        while (!released) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }));

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 1;
  req.query = queries[0];
  ASSERT_TRUE(client.Send(req).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  released = true;

  auto resp = client.Receive();
  ASSERT_TRUE(resp.ok()) << "connection closed with a request in flight: "
                         << resp.status().ToString();
  EXPECT_TRUE(resp->ok()) << resp->error;
}

struct TimerHeapSize {
  size_t nodes;
  size_t pending;
};

/// The server loop's timer heap size, read on the loop thread.
TimerHeapSize ReadTimerHeap(UotsServer& server) {
  std::promise<TimerHeapSize> size;
  EventLoop& loop = server.loop();
  loop.Post([&] {
    size.set_value(
        TimerHeapSize{loop.timers().nodes(), loop.timers().pending()});
  });
  return size.get_future().get();
}

TEST(ServerIntegrationTest, ReadsDoNotGrowTheTimerHeap) {
  // An armed timer due before the idle timeout (the compaction tick) sits
  // at the heap top for the whole run. Thousands of reads on one connection
  // must still leave one heap node per connection and armed timer, not one
  // per read.
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.cache_max_entries = 8;
  opts.compact_snapshot_path = ::testing::TempDir() + "uots-timer-heap.snap";
  opts.compact_interval_ms = 30000.0;  // before the 60 s idle timeout
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  constexpr int kReads = 3000;
  for (int i = 0; i < kReads; ++i) {
    QueryRequest req;
    req.id = i;
    req.query = queries[0];
    auto resp = client.Call(req);  // a cache hit after the first
    ASSERT_TRUE(resp.ok() && resp->ok()) << "call " << i;
  }

  const TimerHeapSize heap = ReadTimerHeap(fx.server());
  EXPECT_EQ(heap.pending, 2u) << "the idle timer and the compaction tick";
  EXPECT_LE(heap.nodes, heap.pending + 2) << "heap nodes after " << kReads
                                          << " reads";
}

TEST(ServerIntegrationTest, CancelledDeadlineTimersDoNotGrowTheTimerHeap) {
  // Every computed request arms a deadline timer that its completion
  // cancels. With the compaction tick armed earlier at the heap top, those
  // cancelled timers must still not pile up one heap node per request.
  auto db = MakeTestDb();
  ServerOptions opts;
  opts.service.cache_max_entries = 0;  // every request runs the engine
  opts.compact_snapshot_path = ::testing::TempDir() + "uots-deadline-heap.snap";
  opts.compact_interval_ms = 30000.0;
  ServerFixture fx(*db, opts);
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  constexpr int kRequests = 3000;
  for (int i = 0; i < kRequests; ++i) {
    QueryRequest req;
    req.id = i;
    req.query = queries[0];
    req.deadline_ms = 60000.0;
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.ok() && resp->ok()) << "call " << i;
  }

  const TimerHeapSize heap = ReadTimerHeap(fx.server());
  EXPECT_EQ(heap.pending, 2u) << "the idle timer and the compaction tick";
  EXPECT_LE(heap.nodes, 2 * heap.pending + 1)
      << "heap nodes after " << kRequests << " cancelled deadline timers";
}

// --- half-close ------------------------------------------------------------

/// Every byte the peer sends on `fd` until it closes (or 10 s pass).
std::string ReadToEof(int fd) {
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string got;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return got;
    got.append(buf, static_cast<size_t>(n));
  }
}

TEST(ServerIntegrationTest, AnswersFramesSentBeforeAHalfClose) {
  auto db = MakeTestDb();
  ServerFixture fx(*db);
  const auto queries = MakeQueries(*db, 2);

  // Two pipelined frames, then the client's FIN: the server may read all
  // three in one pass, and must still answer both frames, in order, before
  // it closes.
  std::string wire;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest req;
    req.id = static_cast<int64_t>(i + 1);
    req.query = queries[i];
    AppendFrame(EncodeQueryRequest(req), &wire);
  }
  const int fd = ConnectRaw(fx.port());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::string got = ReadToEof(fd);
  ::close(fd);

  FrameDecoder dec;
  dec.Append(got.data(), got.size());
  for (const int64_t id : {1, 2}) {
    std::string payload;
    ASSERT_EQ(dec.Poll(&payload), FrameDecoder::Next::kFrame)
        << "reply " << id << " missing before the close";
    auto resp = ParseQueryResponse(payload);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->id, id) << "replies out of order";
    EXPECT_TRUE(resp->ok()) << resp->error;
  }
  std::string extra;
  EXPECT_EQ(dec.Poll(&extra), FrameDecoder::Next::kNeedMore)
      << "bytes after the second reply";
}

// --- admin plane -----------------------------------------------------------

ServerOptions WithAdmin(ServerOptions opts = {}) {
  opts.admin.port = 0;  // ephemeral, like the query port
  return opts;
}

/// One admin-plane GET; fails the test on transport errors.
HttpFetchResult AdminGet(uint16_t admin_port, const std::string& path,
                         const std::string& method = "GET") {
  auto fetched = HttpFetch("127.0.0.1", admin_port, path, method);
  EXPECT_TRUE(fetched.ok()) << path << ": " << fetched.status().ToString();
  return fetched.ok() ? *fetched : HttpFetchResult{};
}

TEST(AdminIntegrationTest, MetricsServeLiveAndStayMonotonicUnderLoad) {
  auto db = MakeTestDb();
  ServerOptions opts = WithAdmin();
  opts.service.threads = 2;
  ServerFixture fx(*db, opts);
  const uint16_t admin_port = fx.server().admin_port();
  ASSERT_GT(admin_port, 0);
  const auto queries = MakeQueries(*db, 8);

  // Counters are served before the first request ever arrives.
  auto first = AdminGet(admin_port, "/metrics");
  ASSERT_EQ(first.status, 200);
  double requests_before = -1.0;
  ASSERT_TRUE(promtext::FindValue(first.body, "uots_server_requests_total",
                                  &requests_before));
  EXPECT_DOUBLE_EQ(requests_before, 0.0);
  // So is every histogram family, empty: the server owns its histograms.
  double latency_count_before = -1.0;
  ASSERT_TRUE(promtext::FindValue(
      first.body, "uots_server_request_latency_seconds_count",
      &latency_count_before));
  EXPECT_DOUBLE_EQ(latency_count_before, 0.0);

  // Scrape concurrently with query load; every sample must be monotone.
  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 15;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", fx.port()).ok()) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        QueryRequest req;
        req.id = t * 100 + r;
        req.query = queries[static_cast<size_t>(t + r) % queries.size()];
        auto resp = client.Call(req);
        if (!resp.ok() || !resp->ok()) ++failures;
      }
    });
  }
  double last_requests = 0.0;
  auto prev_buckets = promtext::ParseHistogramBuckets(
      first.body, "uots_server_request_latency_seconds");
  for (int scrape = 0; scrape < 5; ++scrape) {
    const auto mid = AdminGet(admin_port, "/metrics");
    ASSERT_EQ(mid.status, 200);
    double v = 0.0;
    ASSERT_TRUE(
        promtext::FindValue(mid.body, "uots_server_requests_total", &v));
    EXPECT_GE(v, last_requests) << "requests_total went backwards";
    last_requests = v;
    const auto buckets = promtext::ParseHistogramBuckets(
        mid.body, "uots_server_request_latency_seconds");
    if (!prev_buckets.empty() && buckets.size() == prev_buckets.size()) {
      for (size_t i = 0; i < buckets.size(); ++i) {
        EXPECT_GE(buckets[i].cumulative, prev_buckets[i].cumulative)
            << "bucket le=" << buckets[i].le_seconds << " went backwards";
      }
    }
    prev_buckets = buckets;
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // After the load has fully drained, the scrape is exact, not eventual:
  // every counter is read from its owner as the page renders.
  const auto after = AdminGet(admin_port, "/metrics");
  double requests_after = 0.0, latency_count = 0.0;
  ASSERT_TRUE(promtext::FindValue(after.body, "uots_server_requests_total",
                                  &requests_after));
  EXPECT_DOUBLE_EQ(requests_after,
                   static_cast<double>(kClients * kRequestsPerClient));
  ASSERT_TRUE(promtext::FindValue(
      after.body, "uots_server_request_latency_seconds_count",
      &latency_count));
  EXPECT_DOUBLE_EQ(latency_count,
                   static_cast<double>(kClients * kRequestsPerClient));
}

/// The server-side latency sample count, 0 before the first sample.
double LatencyCount(uint16_t admin_port) {
  double count = 0.0;
  promtext::FindValue(AdminGet(admin_port, "/metrics").body,
                      "uots_server_request_latency_seconds_count", &count);
  return count;
}

/// Polls /metrics until no admitted request is left on the loop.
bool WaitForLoopIdle(uint16_t admin_port) {
  for (int i = 0; i < 500; ++i) {
    double inflight = -1.0;
    promtext::FindValue(AdminGet(admin_port, "/metrics").body,
                        "uots_server_inflight_requests", &inflight);
    if (inflight == 0.0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(AdminIntegrationTest, DeadlineRepliesAreCountedInRequestLatency) {
  auto db = MakeTestDb();
  ServerOptions opts = WithAdmin();
  opts.service.threads = 1;
  ServerFixture fx(*db, opts);
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 8);
  const double before = LatencyCount(admin_port);

  // Eight brute-force misses keep the only worker busy; the ninth request
  // then waits in the queue past its deadline, so the reactor answers it
  // with deadline_exceeded and the worker's late completion is discarded.
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest req;
    req.id = static_cast<int64_t>(i);
    req.query = queries[i];
    req.algorithm = AlgorithmKind::kBruteForce;
    req.has_algorithm = true;
    req.cache = CacheMode::kBypass;
    ASSERT_TRUE(client.Send(req).ok());
  }
  QueryRequest late;
  late.id = 99;
  late.query = queries[0];
  late.deadline_ms = 0.3;
  ASSERT_TRUE(client.Send(late).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok() && resp->ok()) << resp.status().ToString();
  }
  auto timed_out = client.Receive();
  ASSERT_TRUE(timed_out.ok()) << timed_out.status().ToString();
  ASSERT_EQ(timed_out->id, 99);
  ASSERT_EQ(timed_out->status, ResponseStatus::kDeadlineExceeded);

  // Once the worker has drained, every request that got a reply has
  // exactly one latency sample, the deadline reply included.
  ASSERT_TRUE(WaitForLoopIdle(admin_port));
  EXPECT_EQ(LatencyCount(admin_port) - before,
            static_cast<double>(queries.size() + 1));
}

TEST(AdminIntegrationTest, StatuszReportsDatasetAndServerState) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 1;
  req.query = queries[0];
  ASSERT_TRUE(client.Call(req).ok());

  const auto page = AdminGet(admin_port, "/statusz");
  ASSERT_EQ(page.status, 200);
  auto root = ParseJson(page.body);
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  const JsonValue* dataset = root->Find("dataset");
  ASSERT_NE(dataset, nullptr);
  EXPECT_EQ(dataset->Find("vertices")->number_value(), 18 * 18);
  EXPECT_EQ(dataset->Find("trajectories")->number_value(), 250);
  EXPECT_EQ(dataset->Find("fingerprint")->string_value().substr(0, 2), "0x");

  const JsonValue* srv = root->Find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->Find("port")->number_value(), fx.port());
  EXPECT_EQ(srv->Find("admin_port")->number_value(), admin_port);
  EXPECT_FALSE(srv->Find("draining")->bool_value());

  const JsonValue* counters = root->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->Find("requests")->number_value(), 1.0);
  EXPECT_GE(root->Find("uptime_seconds")->number_value(), 0.0);
}

TEST(AdminIntegrationTest, HealthzFlipsToNotReadyDuringDrain) {
  // A larger city than MakeTestDb(): each brute-force query must take long
  // enough that a backlog of them holds the drain open for a comfortable
  // probe window even on a loaded machine.
  GridNetworkOptions net_opts;
  net_opts.rows = 40;
  net_opts.cols = 40;
  net_opts.seed = 23;
  auto network = MakeGridNetwork(net_opts);
  ASSERT_TRUE(network.ok());
  TripGeneratorOptions trip_opts;
  trip_opts.num_trajectories = 2000;
  trip_opts.vocabulary_size = 160;
  trip_opts.seed = 24;
  auto trips = GenerateTrips(*network, trip_opts);
  ASSERT_TRUE(trips.ok());
  auto db = std::make_unique<TrajectoryDatabase>(std::move(*network),
                                                 std::move(trips->store),
                                                 std::move(trips->vocabulary));

  ServerOptions opts = WithAdmin();
  opts.service.threads = 1;  // serialize execution to hold the drain open
  opts.service.max_inflight = 4096;  // admit the whole backlog
  ServerFixture fx(*db, opts);
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 4);

  const auto ready = AdminGet(admin_port, "/healthz");
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "ok\n");

  // Pipeline a pile of slow (brute-force) queries without reading a single
  // response, then start the drain: the admitted backlog keeps the server
  // draining long enough to observe the not-ready flip.
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  constexpr int kBacklog = 600;
  for (int i = 0; i < kBacklog; ++i) {
    QueryRequest req;
    req.id = i;
    req.query = queries[static_cast<size_t>(i) % queries.size()];
    req.algorithm = AlgorithmKind::kBruteForce;
    req.has_algorithm = true;
    ASSERT_TRUE(client.Send(req).ok());
  }
  // The burst is only wire bytes until the reactor reads and admits it —
  // shutting down before that would reject everything instantly and close
  // the drain window we are trying to observe. Wait until /statusz shows a
  // deep executor queue before pulling the trigger.
  bool queued = false;
  for (int attempt = 0; attempt < 2000 && !queued; ++attempt) {
    const auto statusz = AdminGet(admin_port, "/statusz");
    ASSERT_EQ(statusz.status, 200);
    auto root = ParseJson(statusz.body);
    ASSERT_TRUE(root.ok());
    queued = root->Find("server")->Find("executor_queue_depth")
                 ->number_value() >= kBacklog / 2;
  }
  ASSERT_TRUE(queued) << "backlog never reached the executor queue";
  fx.server().RequestShutdown();

  bool saw_draining = false;
  for (int attempt = 0; attempt < 2000 && !saw_draining; ++attempt) {
    auto probe = HttpFetch("127.0.0.1", admin_port, "/healthz");
    if (!probe.ok()) break;  // drain finished, admin closed
    if (probe->status == 503) {
      EXPECT_EQ(probe->body, "draining\n");
      saw_draining = true;
    }
  }
  EXPECT_TRUE(saw_draining)
      << "admin plane never reported 503 while the server drained";
  fx.Stop();
}

TEST(AdminIntegrationTest, RequestIdsEchoByteForByte) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const auto queries = MakeQueries(*db, 2);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());

  // Client-supplied id comes back verbatim.
  QueryRequest req;
  req.id = 1;
  req.request_id = "trip-planner/42 [shard_7]";
  req.query = queries[0];
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok() && resp->ok());
  EXPECT_EQ(resp->request_id, "trip-planner/42 [shard_7]");

  // Without one, the server generates a unique id of its documented shape.
  QueryRequest anon;
  anon.id = 2;
  anon.query = queries[0];
  auto first = client.Call(anon);
  anon.id = 3;
  auto second = client.Call(anon);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_FALSE(first->request_id.empty());
  EXPECT_EQ(first->request_id[0], 's');
  EXPECT_NE(first->request_id.find('-'), std::string::npos);
  EXPECT_NE(first->request_id, second->request_id);

  // Error responses carry the id too.
  QueryRequest dl;
  dl.id = 4;
  dl.request_id = "deadline-probe";
  dl.query = queries[1];
  dl.algorithm = AlgorithmKind::kBruteForce;
  dl.has_algorithm = true;
  dl.deadline_ms = 0.01;
  auto timed_out = client.Call(dl);
  ASSERT_TRUE(timed_out.ok());
  EXPECT_EQ(timed_out->status, ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(timed_out->request_id, "deadline-probe");
}

TEST(AdminIntegrationTest, SlowQueryLogRecordsPhaseBreakdown) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 9;
  req.request_id = "slow-marker";
  req.query = queries[0];
  req.algorithm = AlgorithmKind::kBruteForce;  // deliberately slow
  req.has_algorithm = true;
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok() && resp->ok());

  const auto page = AdminGet(admin_port, "/slowqueries");
  ASSERT_EQ(page.status, 200);
  auto root = ParseJson(page.body);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_GE(root->Find("added")->number_value(), 1.0);

  const JsonValue* recent = root->Find("recent");
  ASSERT_NE(recent, nullptr);
  const JsonValue* entry = nullptr;
  for (const JsonValue& e : recent->array_items()) {
    if (e.Find("request_id")->string_value() == "slow-marker") entry = &e;
  }
  ASSERT_NE(entry, nullptr) << "slow query missing from /slowqueries";
  EXPECT_EQ(entry->Find("algorithm")->string_value(), "BF");
  EXPECT_EQ(entry->Find("status")->string_value(), "ok");
  EXPECT_NE(entry->Find("query")->string_value().find("locs=4"),
            std::string::npos);
  EXPECT_GT(entry->Find("total_ms")->number_value(), 0.0);
  const JsonValue* stats = entry->Find("stats");
  ASSERT_NE(stats, nullptr);
  const JsonValue* phases = stats->Find("phase_ms");
  ASSERT_NE(phases, nullptr) << "per-phase breakdown missing";
  EXPECT_FALSE(phases->object_items().empty());
}

TEST(AdminIntegrationTest, MalformedAdminHttpDoesNotDisturbQueries) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 1);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 1;
  req.query = queries[0];
  ASSERT_TRUE(client.Call(req).ok());

  struct RawConn {
    int fd = -1;
    ~RawConn() {
      if (fd >= 0) ::close(fd);
    }
    bool Connect(uint16_t port) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      return ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0;
    }
    std::string Transact(const std::string& bytes) {
      EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
                static_cast<ssize_t>(bytes.size()));
      std::string got;
      char buf[4096];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;  // admin closes after every response
        got.append(buf, static_cast<size_t>(n));
      }
      return got;
    }
  };

  // A query-protocol client that dialed the wrong port gets a clean 400.
  RawConn garbage;
  ASSERT_TRUE(garbage.Connect(admin_port));
  const std::string got400 =
      garbage.Transact(std::string("\x00\x00\x01\x00", 4) +
                       "{\"id\":1}\r\n\r\n");
  EXPECT_EQ(got400.find("HTTP/1.0 400"), 0u) << got400.substr(0, 64);

  // Oversized header block gets 431 even without a terminator.
  RawConn huge;
  ASSERT_TRUE(huge.Connect(admin_port));
  std::string big = "GET /metrics HTTP/1.0\r\nX-Pad: ";
  big.append(kMaxHttpHeaderBytes + 1024, 'a');
  const std::string got431 = huge.Transact(big);
  EXPECT_EQ(got431.find("HTTP/1.0 431"), 0u) << got431.substr(0, 64);

  // Unknown paths and unsupported methods answer without closing the plane.
  EXPECT_EQ(AdminGet(admin_port, "/nope").status, 404);
  EXPECT_EQ(AdminGet(admin_port, "/metrics", "PUT").status, 405);

  // Neither the query connection nor the admin plane was disturbed.
  req.id = 2;
  auto after = client.Call(req);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->ok());
  EXPECT_EQ(AdminGet(admin_port, "/healthz").status, 200);
}

TEST(AdminIntegrationTest, AnswersARequestFollowedByAHalfClose) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const uint16_t admin_port = fx.server().admin_port();

  // The request and the client's FIN usually reach the server in one read;
  // the request is still answered before the connection closes.
  const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
  for (int i = 0; i < 20; ++i) {
    const int fd = ConnectRaw(admin_port);
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    const std::string got = ReadToEof(fd);
    ::close(fd);
    EXPECT_EQ(got.rfind("HTTP/1.0 200", 0), 0u)
        << "attempt " << i << ": " << got.substr(0, 64);
  }
}

TEST(AdminIntegrationTest, TracingSamplesSpansIntoSlowLog) {
  auto db = MakeTestDb();
  ServerFixture fx(*db, WithAdmin());
  const uint16_t admin_port = fx.server().admin_port();
  const auto queries = MakeQueries(*db, 1);

  // Sampling starts disabled and is settable at runtime over HTTP.
  auto off = AdminGet(admin_port, "/tracing");
  ASSERT_EQ(off.status, 200);
  EXPECT_NE(off.body.find("\"sample_every\":0"), std::string::npos);
  EXPECT_EQ(AdminGet(admin_port, "/tracing", "POST").status, 400)
      << "missing sample= must be rejected";
  auto on = AdminGet(admin_port, "/tracing?sample=1", "POST");
  ASSERT_EQ(on.status, 200);
  EXPECT_NE(on.body.find("\"sample_every\":1"), std::string::npos);
  // A rate beyond int is refused and leaves the current rate in place.
  EXPECT_EQ(AdminGet(admin_port, "/tracing?sample=4294967297", "POST").status,
            400);
  auto kept = AdminGet(admin_port, "/tracing");
  EXPECT_NE(kept.body.find("\"sample_every\":1,"), std::string::npos)
      << kept.body;

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.port()).ok());
  QueryRequest req;
  req.id = 1;
  req.request_id = "sampled-req";
  req.query = queries[0];
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok() && resp->ok());

  const auto page = AdminGet(admin_port, "/slowqueries");
  ASSERT_EQ(page.status, 200);
  auto root = ParseJson(page.body);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const JsonValue* entry = nullptr;
  for (const JsonValue& e : root->Find("recent")->array_items()) {
    if (e.Find("request_id")->string_value() == "sampled-req") entry = &e;
  }
  ASSERT_NE(entry, nullptr);
#if UOTS_TRACE
  // Every request is sampled at sample=1: the span tree must be attached.
  const JsonValue* spans = entry->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_FALSE(spans->array_items().empty()) << "no spans captured";
  bool saw_execute = false;
  for (const JsonValue& s : spans->array_items()) {
    if (s.Find("name")->string_value() == "server_execute") saw_execute = true;
    EXPECT_GE(s.Find("dur_us")->number_value(), 0.0);
  }
  EXPECT_TRUE(saw_execute) << "server_execute root span missing";
#else
  EXPECT_TRUE(entry->Find("spans")->array_items().empty());
#endif

  // Turning sampling back off stops capture for later requests.
  ASSERT_EQ(AdminGet(admin_port, "/tracing?sample=0", "POST").status, 200);
  req.id = 2;
  req.request_id = "unsampled-req";
  ASSERT_TRUE(client.Call(req).ok());
  auto page2 = AdminGet(admin_port, "/slowqueries");
  auto root2 = ParseJson(page2.body);
  ASSERT_TRUE(root2.ok());
  for (const JsonValue& e : root2->Find("recent")->array_items()) {
    if (e.Find("request_id")->string_value() == "unsampled-req") {
      EXPECT_TRUE(e.Find("spans")->array_items().empty());
    }
  }
}

// --- exported series -------------------------------------------------------

/// The `# TYPE` lines of a /metrics page as sorted "<series> <type>" strings.
std::vector<std::string> SeriesTypes(const std::string& page) {
  std::vector<std::string> out;
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) out.push_back(line.substr(7));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// An oracle-backed database served with the result cache, compaction and
/// the admin plane on. Drive() sends retrieval queries (each twice, so the
/// second is a cache hit), trip queries and one ingest batch; Compact()
/// folds the batch. Between them every exported series has been touched.
class MetricsDrill {
 public:
  MetricsDrill() {
    GridNetworkOptions net_opts;
    net_opts.rows = 14;
    net_opts.cols = 14;
    net_opts.seed = 61;
    auto network = MakeGridNetwork(net_opts);
    EXPECT_TRUE(network.ok());
    TripGeneratorOptions trip_opts;
    trip_opts.num_trajectories = 30;
    trip_opts.vocabulary_size = 120;
    trip_opts.seed = 63;
    auto extra = GenerateTrips(*network, trip_opts);
    EXPECT_TRUE(extra.ok());
    for (size_t i = 0; i < extra->store.size(); ++i) {
      extra_.push_back(extra->store.Materialize(static_cast<TrajId>(i)));
    }
    trip_opts.num_trajectories = 150;
    trip_opts.seed = 62;
    auto base = GenerateTrips(*network, trip_opts);
    EXPECT_TRUE(base.ok());
    db_ = std::make_unique<TrajectoryDatabase>(std::move(*network),
                                               std::move(base->store),
                                               std::move(base->vocabulary));
    auto oracle = DistanceOracle::Build(db_->network());
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    db_->AttachOracle(
        std::make_shared<const DistanceOracle>(std::move(*oracle)));

    ServerOptions opts = WithAdmin();
    opts.service.threads = 2;
    opts.service.cache_max_entries = 64;
    opts.compact_snapshot_path = snap_path_;
    fx_ = std::make_unique<ServerFixture>(*db_, opts);
  }

  ~MetricsDrill() {
    fx_.reset();
    std::remove(snap_path_.c_str());
  }

  UotsServer& server() { return fx_->server(); }
  std::string Scrape() {
    return AdminGet(server().admin_port(), "/metrics").body;
  }

  void Drive() {
    BlockingClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", fx_->port()).ok());
    const auto queries = MakeQueries(*db_, 4);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < queries.size(); ++i) {
        QueryRequest req;
        req.id = static_cast<int64_t>(i);
        req.query = queries[i];
        auto resp = client.Call(req);
        ASSERT_TRUE(resp.ok() && resp->ok()) << resp.status().ToString();
        EXPECT_EQ(resp->cached, pass == 1);
      }
    }
    TripWorkloadOptions topts;
    topts.num_queries = 2;
    topts.num_locations = 3;
    topts.k = 2;
    topts.seed = 64;
    auto trips = MakeTripWorkload(*db_, topts);
    ASSERT_TRUE(trips.ok()) << trips.status().ToString();
    for (size_t i = 0; i < trips->size(); ++i) {
      TripRequest req;
      req.id = static_cast<int64_t>(10 + i);
      req.query = (*trips)[i];
      auto resp = client.Call(req);
      ASSERT_TRUE(resp.ok() && resp->ok()) << resp.status().ToString();
    }
    IngestRequest ireq;
    ireq.id = 20;
    ireq.trajectories = extra_;
    auto iresp = client.Call(ireq);
    ASSERT_TRUE(iresp.ok() && iresp->ok()) << iresp.status().ToString();
  }

  void Compact() {
    const uint16_t admin_port = server().admin_port();
    ASSERT_EQ(AdminGet(admin_port, "/compact", "POST").status, 202);
    for (int i = 0; i < 200; ++i) {
      const std::string page = AdminGet(admin_port, "/statusz").body;
      if (page.find("\"compacting\":false") != std::string::npos &&
          page.find("\"compactions\":1") != std::string::npos) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    FAIL() << "compaction did not finish in 10s";
  }

 private:
  const std::string snap_path_ =
      ::testing::TempDir() + "/uots_metrics_drill.snap";
  std::vector<Trajectory> extra_;
  std::unique_ptr<TrajectoryDatabase> db_;
  std::unique_ptr<ServerFixture> fx_;
};

TEST(AdminIntegrationTest, ExportedSeriesMatchTheGoldenList) {
  MetricsDrill drill;
  ASSERT_NO_FATAL_FAILURE(drill.Drive());
  ASSERT_NO_FATAL_FAILURE(drill.Compact());
  // Every series name and type /metrics exports once retrieval, trip,
  // ingest and compaction have run. A rename shows up here as a diff.
  const std::vector<std::string> golden = {
      "uots_server_admin_connections gauge",
      "uots_server_cache_bytes gauge",
      "uots_server_cache_evictions_total counter",
      "uots_server_cache_hits_total counter",
      "uots_server_cache_lookup_quantile_seconds gauge",
      "uots_server_cache_lookup_seconds histogram",
      "uots_server_cache_misses_total counter",
      "uots_server_compactions_total counter",
      "uots_server_connections_accepted_total counter",
      "uots_server_connections_closed_total counter",
      "uots_server_connections_rejected_total counter",
      "uots_server_deadline_exceeded_total counter",
      "uots_server_draining gauge",
      "uots_server_errors_internal_total counter",
      "uots_server_execute_quantile_seconds gauge",
      "uots_server_execute_seconds histogram",
      "uots_server_executor_queue_depth gauge",
      "uots_server_inflight_requests gauge",
      "uots_server_ingest_accepted_trips_total counter",
      "uots_server_ingest_apply_quantile_seconds gauge",
      "uots_server_ingest_apply_seconds histogram",
      "uots_server_ingest_batches_total counter",
      "uots_server_ingest_compact_build_quantile_seconds gauge",
      "uots_server_ingest_compact_build_seconds histogram",
      "uots_server_ingest_compact_failures_total counter",
      "uots_server_ingest_delta_bytes gauge",
      "uots_server_ingest_delta_trajectories gauge",
      "uots_server_ingest_generation_total counter",
      "uots_server_ingest_rejected_batches_total counter",
      "uots_server_ingest_rejected_total counter",
      "uots_server_ingest_requests_total counter",
      "uots_server_open_connections gauge",
      "uots_server_oracle_lookups_total counter",
      "uots_server_oracle_pruned_candidates_total counter",
      "uots_server_oversized_frames_total counter",
      "uots_server_parse_errors_total counter",
      "uots_server_queue_wait_quantile_seconds gauge",
      "uots_server_queue_wait_seconds histogram",
      "uots_server_rejected_overloaded_total counter",
      "uots_server_rejected_shutting_down_total counter",
      "uots_server_request_cache_hits_total counter",
      "uots_server_request_latency_quantile_seconds gauge",
      "uots_server_request_latency_seconds histogram",
      "uots_server_requests_total counter",
      "uots_server_responses_ok_total counter",
      "uots_server_slowlog_entries_total counter",
      "uots_server_trace_sample_every gauge",
      "uots_server_trip_requests_total counter",
      "uots_server_uptime_seconds gauge",
      "uots_trip_assemble_quantile_seconds gauge",
      "uots_trip_assemble_seconds histogram",
      "uots_trip_harvest_quantile_seconds gauge",
      "uots_trip_harvest_seconds histogram",
      "uots_trip_plan_quantile_seconds gauge",
      "uots_trip_plan_seconds histogram",
  };
  EXPECT_EQ(SeriesTypes(drill.Scrape()), golden);
}

TEST(AdminIntegrationTest, EachServerExportsOnlyItsOwnHistograms) {
  // Two servers in one process; only the first gets traffic. The second
  // must export every histogram family from the start, all empty.
  auto db = MakeTestDb();
  ServerOptions opts = WithAdmin();
  opts.service.cache_max_entries = 16;
  ServerFixture busy(*db, opts);
  ServerFixture idle(*db, opts);
  const auto queries = MakeQueries(*db, 2);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", busy.port()).ok());
  for (int pass = 0; pass < 2; ++pass) {  // the second pass hits the cache
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRequest req;
      req.id = static_cast<int64_t>(i);
      req.query = queries[i];
      auto resp = client.Call(req);
      ASSERT_TRUE(resp.ok() && resp->ok()) << resp.status().ToString();
    }
  }
  const std::string busy_page =
      AdminGet(busy.server().admin_port(), "/metrics").body;
  double busy_latency = 0.0;
  ASSERT_TRUE(promtext::FindValue(
      busy_page, "uots_server_request_latency_seconds_count", &busy_latency));
  EXPECT_EQ(busy_latency, 4.0);

  const std::string idle_page =
      AdminGet(idle.server().admin_port(), "/metrics").body;
  for (const char* family :
       {"uots_server_cache_lookup", "uots_server_execute",
        "uots_server_ingest_apply", "uots_server_ingest_compact_build",
        "uots_server_queue_wait", "uots_server_request_latency",
        "uots_trip_assemble", "uots_trip_harvest", "uots_trip_plan"}) {
    double count = -1.0;
    const std::string series = std::string(family) + "_seconds_count";
    EXPECT_TRUE(promtext::FindValue(idle_page, series, &count)) << series;
    EXPECT_EQ(count, 0.0) << series;
  }
}

TEST(AdminIntegrationTest, CountersNeverFallAndMatchTheirOwners) {
  MetricsDrill drill;
  ASSERT_NO_FATAL_FAILURE(drill.Drive());
  const std::string before = drill.Scrape();
  ASSERT_NO_FATAL_FAILURE(drill.Compact());
  const std::string after = drill.Scrape();

  // A compaction empties the delta; no series typed counter may fall.
  for (const std::string& line : SeriesTypes(after)) {
    const size_t space = line.rfind(' ');
    if (line.substr(space + 1) != "counter") continue;
    const std::string series = line.substr(0, space);
    double was = 0.0;  // a counter first exported now was 0 before
    double now = -1.0;
    promtext::FindValue(before, series, &was);
    ASSERT_TRUE(promtext::FindValue(after, series, &now)) << series;
    EXPECT_GE(now, was) << series << " fell across the compaction";
  }

  // The server is idle: the page must equal what the owners hold now,
  // read on the loop thread that owns the reactor-side state.
  struct Owners {
    ResultCache::Stats cache;
    int64_t accepted_trips = 0;
    int64_t rejected = 0;
    int64_t batches = 0;
    int64_t generation = 0;
    int64_t delta_trajectories = 0;
    int64_t delta_bytes = 0;
    int64_t oracle_lookups = 0;
    int64_t oracle_pruned = 0;
  };
  std::promise<Owners> read;
  drill.server().loop().Post([&] {
    UotsServer& s = drill.server();
    Owners o;
    o.cache = s.service().result_cache()->stats();
    o.accepted_trips = s.counters().ingest_accepted_trips;
    o.rejected = s.ingestor().rejected_total();
    o.batches = s.ingestor().batches_total();
    o.generation = static_cast<int64_t>(s.ingestor().generation());
    o.delta_trajectories =
        static_cast<int64_t>(s.ingestor().delta_trajectories());
    o.delta_bytes = static_cast<int64_t>(s.ingestor().delta_bytes());
    o.oracle_lookups = s.service().oracle_lookups();
    o.oracle_pruned = s.service().oracle_pruned_candidates();
    read.set_value(o);
  });
  const Owners o = read.get_future().get();
  const auto value = [&after](const std::string& series) {
    double v = -1.0;
    EXPECT_TRUE(promtext::FindValue(after, series, &v)) << series;
    return static_cast<int64_t>(v);
  };
  EXPECT_GT(o.cache.hits, 0);
  EXPECT_EQ(value("uots_server_cache_hits_total"), o.cache.hits);
  EXPECT_EQ(value("uots_server_cache_misses_total"), o.cache.misses);
  EXPECT_EQ(value("uots_server_cache_evictions_total"),
            o.cache.evictions + o.cache.expired);
  EXPECT_EQ(value("uots_server_cache_bytes"), o.cache.bytes);
  EXPECT_EQ(value("uots_server_ingest_accepted_trips_total"),
            o.accepted_trips);
  EXPECT_EQ(o.accepted_trips, 30);
  EXPECT_EQ(value("uots_server_ingest_rejected_total"), o.rejected);
  EXPECT_EQ(value("uots_server_ingest_batches_total"), o.batches);
  EXPECT_EQ(value("uots_server_ingest_generation_total"), o.generation);
  EXPECT_EQ(value("uots_server_ingest_delta_trajectories"),
            o.delta_trajectories);
  EXPECT_EQ(value("uots_server_ingest_delta_bytes"), o.delta_bytes);
  EXPECT_GT(o.oracle_lookups, 0);
  EXPECT_EQ(value("uots_server_oracle_lookups_total"), o.oracle_lookups);
  EXPECT_EQ(value("uots_server_oracle_pruned_candidates_total"),
            o.oracle_pruned);
}

}  // namespace
}  // namespace uots
