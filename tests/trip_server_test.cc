// Trip assembly over the wire (DESIGN.md §12): protocol round-trips, and
// the end-to-end determinism contract — the bytes a client gets back are
// bit-for-bit identical whether the result cache served them or not, and
// before vs after a live compaction folds the delta into the base. Both
// are checked against a cold in-process planner, which is exactly what
// `uots_client --trip --verify` does in CI.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/generators.h"
#include "oracle/ch_oracle.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "traj/generator.h"
#include "trip/planner.h"
#include "trip/workload.h"

namespace uots {
namespace {

constexpr int kVocab = 120;

RoadNetwork MakeNet() {
  GridNetworkOptions opts;
  opts.rows = 15;
  opts.cols = 15;
  opts.seed = 91;
  auto net = MakeGridNetwork(opts);
  EXPECT_TRUE(net.ok());
  return std::move(*net);
}

std::shared_ptr<TrajectoryDatabase> MakeDb(const RoadNetwork& net,
                                           int trajectories, uint64_t seed) {
  TripGeneratorOptions opts;
  opts.num_trajectories = trajectories;
  opts.vocabulary_size = kVocab;
  opts.seed = seed;
  auto gen = GenerateTrips(net, opts);
  EXPECT_TRUE(gen.ok());
  return std::make_shared<TrajectoryDatabase>(net, std::move(gen->store),
                                              std::move(gen->vocabulary));
}

std::vector<Trajectory> MakeRows(const RoadNetwork& net, int n,
                                 uint64_t seed) {
  TripGeneratorOptions opts;
  opts.num_trajectories = n;
  opts.vocabulary_size = kVocab;
  opts.seed = seed;
  auto gen = GenerateTrips(net, opts);
  EXPECT_TRUE(gen.ok());
  std::vector<Trajectory> rows;
  rows.reserve(gen->store.size());
  for (size_t i = 0; i < gen->store.size(); ++i) {
    rows.push_back(gen->store.Materialize(static_cast<TrajId>(i)));
  }
  return rows;
}

std::vector<TripQuery> MakeQueries(const TrajectoryDatabase& db, int n) {
  TripWorkloadOptions wopts;
  wopts.num_queries = n;
  wopts.num_locations = 4;
  wopts.k = 3;
  wopts.seed = 47;
  auto queries = MakeTripWorkload(db, wopts);
  EXPECT_TRUE(queries.ok());
  return std::move(*queries);
}

TEST(TripServerTest, RequestRoundTripsThroughTheWire) {
  TripRequest req;
  req.id = 42;
  req.request_id = "cli-7";
  req.query.locations = {9, 2, 31};
  req.query.keywords = KeywordSet{5, 1, 17};
  req.query.lambda = 0.375;  // exactly representable
  req.query.k = 4;
  req.query.ordered = true;
  req.query.use_categories = true;
  req.query.gap_budget_m = 1250.5;
  req.query.segments_per_location = 12;
  req.query.window = 6;
  req.deadline_ms = 750.0;
  req.cache = CacheMode::kBypass;

  auto parsed = ParseTripRequest(EncodeTripRequest(req));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, req.id);
  EXPECT_EQ(parsed->request_id, req.request_id);
  EXPECT_EQ(parsed->query.locations, req.query.locations);
  EXPECT_EQ(parsed->query.keywords.ToVector(), req.query.keywords.ToVector());
  EXPECT_EQ(parsed->query.lambda, req.query.lambda);
  EXPECT_EQ(parsed->query.k, req.query.k);
  EXPECT_EQ(parsed->query.ordered, req.query.ordered);
  EXPECT_EQ(parsed->query.use_categories, req.query.use_categories);
  EXPECT_EQ(parsed->query.gap_budget_m, req.query.gap_budget_m);
  EXPECT_EQ(parsed->query.segments_per_location,
            req.query.segments_per_location);
  EXPECT_EQ(parsed->query.window, req.query.window);
  EXPECT_EQ(parsed->deadline_ms, req.deadline_ms);
  EXPECT_EQ(parsed->cache, req.cache);
}

TEST(TripServerTest, ResponseRoundTripsBitForBit) {
  TripResponse resp;
  resp.id = 7;
  resp.request_id = "s12-3";
  resp.cached = true;
  resp.queue_wait_ms = 0.125;
  resp.execute_ms = 17.03125;
  AssembledTrip trip;
  // Awkward doubles on purpose: %.17g emission must reproduce every bit.
  trip.score = 0.1 + 0.2;
  trip.spatial_sim = 1.0 / 3.0;
  trip.textual_sim = 2.0 / 7.0;
  trip.connector_total_m = 1234.5678901234567;
  TripSegment seg;
  seg.traj = 8812;
  seg.begin = 3;
  seg.end = 11;
  seg.entry = 4471;
  seg.exit = 902;
  seg.loc_distance = 617.28394061728398;
  seg.connector_m = 0.0;
  trip.segments.push_back(seg);
  seg.traj = 17;
  seg.connector_m = 3081.4159265358979;
  trip.segments.push_back(seg);
  resp.trips.push_back(trip);

  auto parsed = ParseTripResponse(EncodeTripResponse(resp));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, resp.id);
  EXPECT_EQ(parsed->request_id, resp.request_id);
  EXPECT_EQ(parsed->status, ResponseStatus::kOk);
  EXPECT_TRUE(parsed->cached);
  EXPECT_EQ(parsed->queue_wait_ms, resp.queue_wait_ms);
  EXPECT_EQ(parsed->execute_ms, resp.execute_ms);
  // AssembledTrip::operator== is exact double equality.
  EXPECT_TRUE(parsed->trips == resp.trips);

  TripResponse err;
  err.id = 8;
  err.status = ResponseStatus::kOverloaded;
  err.error = "queue full";
  auto eparsed = ParseTripResponse(EncodeTripResponse(err));
  ASSERT_TRUE(eparsed.ok()) << eparsed.status().ToString();
  EXPECT_EQ(eparsed->status, ResponseStatus::kOverloaded);
  EXPECT_EQ(eparsed->error, "queue full");
  EXPECT_TRUE(eparsed->retryable());
  EXPECT_TRUE(eparsed->trips.empty());
}

TEST(TripServerTest, CacheOnOffServesIdenticalBits) {
  const RoadNetwork net = MakeNet();
  auto db = MakeDb(net, 150, 22);
  const auto queries = MakeQueries(*db, 6);

  ServerOptions opts;
  opts.port = 0;
  opts.service.threads = 2;
  opts.service.cache_max_entries = 64;
  UotsServer server(std::shared_ptr<const TrajectoryDatabase>(db), opts);
  ASSERT_TRUE(server.Start().ok());
  std::thread loop([&] { server.Run(); });

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // The cold in-process reference — what --verify compares against.
  TripPlanner local(*db);

  for (size_t i = 0; i < queries.size(); ++i) {
    TripRequest req;
    req.id = static_cast<int64_t>(i);
    req.query = queries[i];

    auto first = client.Call(req);  // compute + populate
    ASSERT_TRUE(first.ok() && first->ok()) << first.status().ToString();
    EXPECT_FALSE(first->cached);

    auto second = client.Call(req);  // served from the cache
    ASSERT_TRUE(second.ok() && second->ok());
    EXPECT_TRUE(second->cached);

    req.cache = CacheMode::kBypass;  // forced recompute
    auto third = client.Call(req);
    ASSERT_TRUE(third.ok() && third->ok());
    EXPECT_FALSE(third->cached);

    EXPECT_TRUE(first->trips == second->trips) << "query " << i;
    EXPECT_TRUE(first->trips == third->trips) << "query " << i;

    auto ref = local.Plan(queries[i]);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_TRUE(first->trips == ref->trips) << "query " << i;
    EXPECT_FALSE(first->trips.empty()) << "query " << i;
  }

  server.RequestShutdown();
  loop.join();
}

TEST(TripServerTest, OracleOffServerPlansTripsWithoutTheOracle) {
  // The server's one oracle switch covers trips as well as retrieval: off,
  // a trip never consults the snapshot's oracle, and its answer is bit for
  // bit the oracle-on server's.
  const RoadNetwork net = MakeNet();
  auto db = MakeDb(net, 150, 22);
  auto oracle = DistanceOracle::Build(db->network());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  db->AttachOracle(std::make_shared<const DistanceOracle>(std::move(*oracle)));
  const auto queries = MakeQueries(*db, 4);

  std::vector<TripResponse> replies[2];  // [0] oracle on, [1] oracle off
  for (const bool use_oracle : {true, false}) {
    ServerOptions opts;
    opts.port = 0;
    opts.service.threads = 1;
    opts.service.uots.use_oracle = use_oracle;
    UotsServer server(std::shared_ptr<const TrajectoryDatabase>(db), opts);
    ASSERT_TRUE(server.Start().ok());
    std::thread loop([&] { server.Run(); });
    BlockingClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      TripRequest req;
      req.id = static_cast<int64_t>(i);
      req.query = queries[i];
      auto resp = client.Call(req);
      ASSERT_TRUE(resp.ok() && resp->ok()) << resp.status().ToString();
      replies[use_oracle ? 0 : 1].push_back(std::move(*resp));
    }
    server.RequestShutdown();
    loop.join();
  }

  for (size_t i = 0; i < queries.size(); ++i) {
    const TripResponse& on = replies[0][i];
    const TripResponse& off = replies[1][i];
    EXPECT_GT(on.stats.oracle_lookups, 0) << "query " << i;
    EXPECT_EQ(off.stats.oracle_lookups, 0) << "query " << i;
    EXPECT_FALSE(off.trips.empty()) << "query " << i;
    EXPECT_TRUE(on.trips == off.trips) << "query " << i;
  }
}

/// One admin-plane fetch; fails the test on transport errors.
std::string AdminBody(uint16_t admin_port, const std::string& path,
                      const std::string& method = "GET") {
  auto fetched = HttpFetch("127.0.0.1", admin_port, path, method);
  EXPECT_TRUE(fetched.ok()) << path << ": " << fetched.status().ToString();
  return fetched.ok() ? fetched->body : std::string();
}

/// Value of one exported series, 0 while it has no sample yet.
double MetricValue(uint16_t admin_port, const std::string& series) {
  double v = 0.0;
  promtext::FindValue(AdminBody(admin_port, "/metrics"), series, &v);
  return v;
}

TEST(TripServerTest, ComputedTripCountsAsServerExecute) {
  const RoadNetwork net = MakeNet();
  auto db = MakeDb(net, 150, 22);
  const auto queries = MakeQueries(*db, 1);

  ServerOptions opts;
  opts.port = 0;
  opts.admin.port = 0;
  opts.service.threads = 1;
  UotsServer server(std::shared_ptr<const TrajectoryDatabase>(db), opts);
  ASSERT_TRUE(server.Start().ok());
  std::thread loop([&] { server.Run(); });
  const uint16_t admin_port = server.admin_port();

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  TripRequest req;
  req.id = 1;
  req.query = queries[0];
  req.cache = CacheMode::kBypass;
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok() && resp->ok()) << resp.status().ToString();

  // The server owns its histograms: the one computed trip is all they hold.
  EXPECT_EQ(MetricValue(admin_port, "uots_server_execute_seconds_count"), 1.0);
  EXPECT_EQ(MetricValue(admin_port, "uots_trip_plan_seconds_count"), 1.0);

  server.RequestShutdown();
  loop.join();
}

TEST(TripServerTest, SampledTripSpansHaveTheServerExecuteRoot) {
  const RoadNetwork net = MakeNet();
  auto db = MakeDb(net, 150, 22);
  const auto queries = MakeQueries(*db, 1);

  ServerOptions opts;
  opts.port = 0;
  opts.admin.port = 0;
  opts.service.threads = 1;
  UotsServer server(std::shared_ptr<const TrajectoryDatabase>(db), opts);
  ASSERT_TRUE(server.Start().ok());
  std::thread loop([&] { server.Run(); });
  const uint16_t admin_port = server.admin_port();
  ASSERT_NE(AdminBody(admin_port, "/tracing?sample=1", "POST")
                .find("\"sample_every\":1"),
            std::string::npos);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  TripRequest req;
  req.id = 1;
  req.request_id = "sampled-trip";
  req.query = queries[0];
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok() && resp->ok()) << resp.status().ToString();

  auto root = ParseJson(AdminBody(admin_port, "/slowqueries"));
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const JsonValue* entry = nullptr;
  for (const JsonValue& e : root->Find("recent")->array_items()) {
    if (e.Find("request_id")->string_value() == "sampled-trip") entry = &e;
  }
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("algorithm")->string_value(), "TRIP");
#if UOTS_TRACE
  bool saw_execute = false;
  for (const JsonValue& s : entry->Find("spans")->array_items()) {
    if (s.Find("name")->string_value() == "server_execute") saw_execute = true;
  }
  EXPECT_TRUE(saw_execute) << "server_execute root span missing";
#else
  EXPECT_TRUE(entry->Find("spans")->array_items().empty());
#endif

  server.RequestShutdown();
  loop.join();
}

TEST(TripServerTest, CompactionPreservesTripAnswersBitForBit) {
  const RoadNetwork net = MakeNet();
  auto db = MakeDb(net, 120, 22);
  const std::vector<Trajectory> extra = MakeRows(net, 30, 77);

  const std::string snap_path =
      ::testing::TempDir() + "/uots_trip_compact.snap";
  ServerOptions opts;
  opts.port = 0;
  opts.admin.port = 0;  // ephemeral admin plane for POST /compact
  opts.service.threads = 2;
  opts.service.cache_max_entries = 64;
  opts.compact_snapshot_path = snap_path;
  UotsServer server(std::shared_ptr<const TrajectoryDatabase>(db), opts);
  ASSERT_TRUE(server.Start().ok());
  std::thread loop([&] { server.Run(); });

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  IngestRequest ireq;
  ireq.id = 1;
  ireq.trajectories = extra;
  auto iresp = client.Call(ireq);
  ASSERT_TRUE(iresp.ok()) << iresp.status().ToString();
  ASSERT_TRUE(iresp->ok()) << iresp->error;

  // Draw the workload over a database that contains base + delta, so
  // live-ingested trips are harvestable and do participate.
  TrajectoryStore merged;
  for (size_t i = 0; i < db->store().size(); ++i) {
    ASSERT_TRUE(merged.Add(db->store().Materialize(static_cast<TrajId>(i)))
                    .ok());
  }
  for (const auto& t : extra) ASSERT_TRUE(merged.Add(t).ok());
  TrajectoryDatabase rebuilt(net, std::move(merged), db->vocabulary());
  const auto queries = MakeQueries(rebuilt, 6);

  // Pre-compaction answers are served through the delta overlay.
  std::vector<TripResponse> before;
  for (size_t i = 0; i < queries.size(); ++i) {
    TripRequest req;
    req.id = static_cast<int64_t>(i);
    req.query = queries[i];
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.ok() && resp->ok()) << resp.status().ToString();
    before.push_back(std::move(*resp));
  }

  auto post = HttpFetch("127.0.0.1", server.admin_port(), "/compact", "POST");
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_EQ(post->status, 202);
  bool compacted = false;
  for (int i = 0; i < 200 && !compacted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto statusz =
        HttpFetch("127.0.0.1", server.admin_port(), "/statusz", "GET");
    ASSERT_TRUE(statusz.ok());
    compacted =
        statusz->body.find("\"compacting\":false") != std::string::npos &&
        statusz->body.find("\"compactions\":1") != std::string::npos;
  }
  ASSERT_TRUE(compacted) << "compaction did not finish in 10s";

  // Global trajectory ids are stable across the fold, so every assembled
  // trip — provenance, connectors, scores — must be byte-identical, and a
  // cold planner over the equivalent rebuilt database must agree too.
  TripPlanner local(rebuilt);
  for (size_t i = 0; i < queries.size(); ++i) {
    TripRequest req;
    req.id = 100 + static_cast<int64_t>(i);
    req.query = queries[i];
    auto after = client.Call(req);
    ASSERT_TRUE(after.ok() && after->ok()) << after.status().ToString();
    // The compaction swap bumps the live fingerprint: pre-compaction cache
    // entries are unreachable, so this is a fresh computation.
    EXPECT_FALSE(after->cached) << "query " << i;
    EXPECT_TRUE(after->trips == before[i].trips) << "query " << i;
    auto ref = local.Plan(queries[i]);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_TRUE(after->trips == ref->trips) << "query " << i;
    EXPECT_FALSE(after->trips.empty()) << "query " << i;
  }

  server.RequestShutdown();
  loop.join();
  std::remove(snap_path.c_str());
}

}  // namespace
}  // namespace uots
