// Experiment W1 — what a wire-level cache hit costs the reactor, stage by
// stage (google-benchmark).
//
// Each benchmark is one step UotsServer takes to answer a result-cache hit,
// in the order it takes them: parse the frame, build the cache key and
// probe, encode the reply, write the slow-log entry, record the latency
// histogram, and re-arm the connection's epoll interest. The encode stage
// is also split into its parts (the 30 doubles of a k=10 hit, the stats
// object). Socket I/O and wake-ups are not here; perfbench's traced
// retrieve_hot run covers those (EXPERIMENTS.md W1).
//
//   build/bench/bench_wire --benchmark_min_time=0.5

#include <benchmark/benchmark.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/workload.h"
#include "net/generators.h"
#include "server/admin.h"
#include "server/event_loop.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/service.h"
#include "traj/generator.h"
#include "util/histogram.h"

namespace uots {
namespace bench {
namespace {

/// A served database plus 64 cached answers in the shape perfbench's
/// retrieve_hot requests (m=5 locations, 5 keywords, k=10).
struct HitFixture {
  std::unique_ptr<TrajectoryDatabase> db;
  std::unique_ptr<UotsService> service;
  std::vector<UotsQuery> queries;
  std::vector<std::string> frames;  ///< request bodies, as read off a socket
  std::vector<std::shared_ptr<const CachedResult>> hits;

  HitFixture() {
    GridNetworkOptions net_opts;
    net_opts.rows = 40;
    net_opts.cols = 40;
    net_opts.seed = 3;
    auto network = MakeGridNetwork(net_opts);
    TripGeneratorOptions trip_opts;
    trip_opts.num_trajectories = 2000;
    trip_opts.seed = 4;
    auto trips = GenerateTrips(*network, trip_opts);
    db = std::make_unique<TrajectoryDatabase>(std::move(*network),
                                              std::move(trips->store),
                                              std::move(trips->vocabulary));
    ServiceOptions sopts;
    sopts.threads = 1;
    sopts.cache_max_entries = 4096;
    service = std::make_unique<UotsService>(*db, sopts);
    WorkloadOptions wopts;
    wopts.num_queries = 64;
    wopts.seed = 5;
    queries = std::move(*MakeWorkload(*db, wopts));
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRequest req;
      req.id = static_cast<int64_t>(i);
      req.query = queries[i];
      frames.push_back(EncodeQueryRequest(req));
      std::string key;
      (void)service->CacheLookup(queries[i], AlgorithmKind::kUots, &key);
      auto result = RunQuery(*db, queries[i]);
      auto value = std::make_shared<CachedResult>();
      value->items = result->items;
      value->stats = result->stats;
      service->result_cache()->Insert(key, value);
      hits.push_back(std::move(value));
    }
  }
};

HitFixture& Fixture() {
  static auto* fx = new HitFixture();
  return *fx;
}

/// The reply the server encodes for hit `i` (copied out of the cache
/// entry, as HandleQuery does).
QueryResponse HitResponse(const HitFixture& fx, size_t i) {
  QueryResponse resp;
  resp.id = static_cast<int64_t>(i);
  resp.request_id = "s1-" + std::to_string(i);
  resp.results = fx.hits[i]->items;
  resp.has_stats = true;
  resp.stats = fx.hits[i]->stats;
  resp.cached = true;
  return resp;
}

void BM_HitParse(benchmark::State& state) {
  const HitFixture& fx = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    Result<JsonValue> doc = ParseJson(fx.frames[i]);
    benchmark::DoNotOptimize(RequestTypeOf(*doc));
    Result<QueryRequest> req = ParseQueryRequest(*doc);
    benchmark::DoNotOptimize(req->query.locations.data());
    i = (i + 1) % fx.frames.size();
  }
}
BENCHMARK(BM_HitParse);

void BM_HitCacheKeyAndProbe(benchmark::State& state) {
  HitFixture& fx = Fixture();
  size_t i = 0;
  std::string key;
  for (auto _ : state) {
    auto hit = fx.service->CacheLookup(fx.queries[i], AlgorithmKind::kUots,
                                       &key);
    if (hit == nullptr) {
      state.SkipWithError("cache miss");
      break;
    }
    benchmark::DoNotOptimize(hit.get());
    i = (i + 1) % fx.queries.size();
  }
}
BENCHMARK(BM_HitCacheKeyAndProbe);

void BM_HitEncode(benchmark::State& state) {
  const HitFixture& fx = Fixture();
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string body = EncodeQueryResponse(HitResponse(fx, i));
    bytes += body.size();
    benchmark::DoNotOptimize(body.data());
    i = (i + 1) % fx.hits.size();
  }
  state.counters["bytes"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_HitEncode);

void BM_HitDoubles(benchmark::State& state) {
  const HitFixture& fx = Fixture();
  size_t i = 0;
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const ScoredTrajectory& st : fx.hits[i]->items) {
      JsonAppendDouble(st.score, &out);
      JsonAppendDouble(st.spatial_sim, &out);
      JsonAppendDouble(st.textual_sim, &out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    i = (i + 1) % fx.hits.size();
  }
}
BENCHMARK(BM_HitDoubles);

void BM_HitStatsJson(benchmark::State& state) {
  const HitFixture& fx = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.hits[i]->stats.ToJson());
    i = (i + 1) % fx.hits.size();
  }
}
BENCHMARK(BM_HitStatsJson);

void BM_HitSlowLogAdd(benchmark::State& state) {
  const HitFixture& fx = Fixture();
  SlowQueryLog log(kSlowLogRecent, kSlowLogSlowest);
  size_t i = 0;
  char lambda[32];
  for (auto _ : state) {
    // The entry RecordSlowLog builds for a hit, summary line included.
    const UotsQuery& q = fx.queries[i];
    std::snprintf(lambda, sizeof(lambda), "%.3g", q.lambda);
    SlowLogEntry e;
    e.request_id = "s1-" + std::to_string(i);
    e.algorithm = ToString(AlgorithmKind::kUots);
    e.query_summary = "locs=" + std::to_string(q.locations.size()) +
                      " kw=" + std::to_string(q.keywords.size()) +
                      " lambda=" + lambda + " k=" + std::to_string(q.k) +
                      " algo=UOTS";
    e.status = "ok";
    e.cached = true;
    e.total_ms = 0.01;
    e.has_stats = true;
    e.stats = fx.hits[i]->stats;
    log.Add(std::move(e));
    i = (i + 1) % fx.hits.size();
  }
}
BENCHMARK(BM_HitSlowLogAdd);

void BM_HitMetricsRecord(benchmark::State& state) {
  // The server's request-latency histogram is a plain member it records on
  // its loop thread: one Record per reply, no lock and no name lookup.
  LatencyHistogram latency;
  int64_t ns = 10'000;
  for (auto _ : state) {
    latency.Record(ns);
    benchmark::DoNotOptimize(&latency);
    benchmark::ClobberMemory();
    ns = ns % 50'000 + 1'000;
  }
}
BENCHMARK(BM_HitMetricsRecord);

void BM_HitEpollRearm(benchmark::State& state) {
  // UpdateWriteInterest after every reply: an epoll_ctl(MOD) on the
  // connection's socket, even when the interest set did not change.
  EventLoop loop;
  int fds[2];
  if (!loop.Init().ok() ||
      ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds) != 0 ||
      !loop.AddFd(fds[0], EPOLLIN, [](uint32_t) {}).ok()) {
    state.SkipWithError("event loop setup failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.SetEvents(fds[0], EPOLLIN).ok());
  }
  loop.RemoveFd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}
BENCHMARK(BM_HitEpollRearm);

}  // namespace
}  // namespace bench
}  // namespace uots

BENCHMARK_MAIN();
