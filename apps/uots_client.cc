// Load generator and correctness checker for uots_server.
//
//   $ ./uots_client --port=7670 --connections=8 --requests=2000
//   $ ./uots_client --port=7670 --rate=500 --duration-s=10   # open loop
//   $ ./uots_client --port=7670 --verify                     # bit-for-bit
//
// Closed loop: each connection keeps exactly one request outstanding;
// throughput is supply-limited, latency excludes queueing at the client.
// Open loop: requests are launched on a fixed schedule regardless of
// completions (the honest way to measure a saturated server — latency then
// includes the time requests spend waiting for a connection slot).
//
// --verify replays the workload through the server AND through the
// in-process engine and requires identical trajectory ids and score bits —
// the wire protocol's round-trip double encoding makes this exact.
//
// Results print as a table and land in BENCH_server.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/datasets.h"
#include "common/report.h"
#include "core/workload.h"
#include "flags.h"
#include "server/client.h"
#include "server/http.h"
#include "server/request_kind.h"
#include "storage/resolver.h"
#include "text/zipf.h"
#include "traj/generator.h"
#include "trip/workload.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace {

using uots::bench::City;
using uots::cli::ParseFlag;
using uots::cli::ParseNumber;

struct Flags {
  std::string host = "127.0.0.1";
  int port = 7670;
  std::string city = "BRN";
  std::string dataset;  // snapshot or text path; overrides --city
  int trajectories = 0;
  int connections = 8;
  int requests = 2000;       // closed-loop total
  double rate = 0.0;         // open-loop qps; 0 = closed loop
  double duration_s = 10.0;  // open-loop run length
  int num_queries = 64;      // distinct workload queries to cycle through
  int locations = 5;
  int keywords = 5;
  double lambda = 0.5;
  int k = 10;
  uint64_t seed = 7;
  std::string algorithm = "UOTS";
  double deadline_ms = 0.0;
  bool verify = false;
  /// Live-ingest drill: generate N fresh trips, push them over the wire,
  /// then verify every workload query bit-for-bit against a local cold
  /// rebuild over base + ingested trips. 0 = off.
  int ingest = 0;
  int ingest_batch = 64;
  /// Trip-assembly mode: the workload becomes trip queries ("type":"trip"
  /// frames); --verify then compares assembled trips bit-for-bit against a
  /// cold in-process TripPlanner. The JSON report defaults to
  /// BENCH_trip.json and --scrape-admin folds the trip.* histograms in.
  bool trip = false;
  double trip_gap = 0.0;  ///< connector gap budget in meters (0 = unlimited)
  /// Zipf exponent for query selection; 0 = uniform rotation. Skewed picks
  /// model real trip-recommendation traffic (popular POI combos repeat)
  /// and are what make the server's result cache earn hits.
  double zipf = 0.0;
  std::string cache = "default";  // or "bypass"
  /// Fail (exit 1) when the observed cache hit rate is below this; < 0
  /// disables the assertion.
  double min_hit_rate = -1.0;
  std::string json_out = "BENCH_server.json";  // --trip: BENCH_trip.json
  bool json_out_set = false;  ///< --json-out given explicitly
  /// "HOST:PORT" of the server's admin plane. When set, /metrics is
  /// scraped before and after the load run and the server-observed
  /// run-window latency quantiles + cache hit rate are folded into the
  /// report next to the client-observed numbers.
  std::string scrape_admin;
};

bool ParseBoolFlag(const char* arg, const char* name) {
  return std::strcmp(arg, name) == 0;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host=ADDR] [--port=N] [--city=BRN|NRN]\n"
      "          [--dataset=PATH] [--trajectories=N] [--connections=N]\n"
      "          [--requests=N] [--rate=QPS] [--duration-s=S]\n"
      "          [--num-queries=N] [--locations=N] [--keywords=N]\n"
      "          [--lambda=0..1] [--k=N] [--seed=N] [--algorithm=NAME]\n"
      "          [--deadline-ms=MS] [--zipf=0..1] [--cache=default|bypass]\n"
      "          [--min-hit-rate=R] [--json-out=PATH] [--trip]\n"
      "          [--trip-gap=M] [--scrape-admin=HOST:PORT] [--ingest=N]\n"
      "          [--ingest-batch=N] [--verify]\n",
      argv0);
}

/// Latencies + error tallies for one worker thread. Hit/miss latencies are
/// kept separately — a cache hit and a computed answer are different
/// service classes, and averaging them hides both.
struct WorkerStats {
  uots::LatencyHistogram latency;
  uots::LatencyHistogram hit_latency;
  uots::LatencyHistogram miss_latency;
  int64_t ok = 0;
  int64_t cache_hits = 0;
  int64_t overloaded = 0;
  int64_t deadline_exceeded = 0;
  int64_t other_errors = 0;
  int64_t transport_errors = 0;

  void Count(uots::ResponseStatus status, bool cached, int64_t latency_ns) {
    latency.Record(latency_ns);
    switch (status) {
      case uots::ResponseStatus::kOk:
        ++ok;
        if (cached) {
          ++cache_hits;
          hit_latency.Record(latency_ns);
        } else {
          miss_latency.Record(latency_ns);
        }
        break;
      case uots::ResponseStatus::kOverloaded:
      case uots::ResponseStatus::kShuttingDown:
        ++overloaded;
        break;
      case uots::ResponseStatus::kDeadlineExceeded:
        ++deadline_exceeded;
        break;
      default:
        ++other_errors;
        break;
    }
  }

  void Merge(const WorkerStats& o) {
    latency.Merge(o.latency);
    hit_latency.Merge(o.hit_latency);
    miss_latency.Merge(o.miss_latency);
    ok += o.ok;
    cache_hits += o.cache_hits;
    overloaded += o.overloaded;
    deadline_exceeded += o.deadline_exceeded;
    other_errors += o.other_errors;
    transport_errors += o.transport_errors;
  }
};

/// One /metrics scrape, reduced to what the report folds in.
struct AdminScrape {
  double requests = 0.0;       // uots_server_requests_total
  double trip_requests = 0.0;  // uots_server_trip_requests_total
  double responses_ok = 0.0;   // uots_server_responses_ok_total
  double cache_hits = 0.0;     // uots_server_request_cache_hits_total
  std::vector<uots::promtext::HistogramBucket> latency_buckets;
  // Trip-plane histograms (server-side planner wall time + phase split).
  std::vector<uots::promtext::HistogramBucket> trip_plan_buckets;
  std::vector<uots::promtext::HistogramBucket> trip_harvest_buckets;
  std::vector<uots::promtext::HistogramBucket> trip_assemble_buckets;
};

bool ScrapeAdmin(const std::string& host, uint16_t port, AdminScrape* out) {
  auto r = uots::HttpFetch(host, port, "/metrics");
  if (!r.ok()) {
    std::fprintf(stderr, "scrape-admin: %s\n", r.status().ToString().c_str());
    return false;
  }
  if (r->status != 200) {
    std::fprintf(stderr, "scrape-admin: /metrics returned %d\n", r->status);
    return false;
  }
  const std::string& text = r->body;
  uots::promtext::FindValue(text, "uots_server_requests_total",
                            &out->requests);
  uots::promtext::FindValue(text, "uots_server_responses_ok_total",
                            &out->responses_ok);
  uots::promtext::FindValue(text, "uots_server_request_cache_hits_total",
                            &out->cache_hits);
  uots::promtext::FindValue(text, "uots_server_trip_requests_total",
                            &out->trip_requests);
  out->latency_buckets = uots::promtext::ParseHistogramBuckets(
      text, "uots_server_request_latency_seconds");
  out->trip_plan_buckets = uots::promtext::ParseHistogramBuckets(
      text, "uots_trip_plan_seconds");
  out->trip_harvest_buckets = uots::promtext::ParseHistogramBuckets(
      text, "uots_trip_harvest_seconds");
  out->trip_assemble_buckets = uots::promtext::ParseHistogramBuckets(
      text, "uots_trip_assemble_seconds");
  return true;
}

/// Splits "HOST:PORT"; a bare "PORT" means 127.0.0.1.
bool ParseHostPort(const std::string& s, std::string* host, uint16_t* port) {
  const size_t colon = s.rfind(':');
  const std::string port_str =
      colon == std::string::npos ? s : s.substr(colon + 1);
  *host = colon == std::string::npos ? "127.0.0.1" : s.substr(0, colon);
  return ParseNumber(port_str, uint16_t{1}, uint16_t{65535}, port);
}

/// --verify for query kind `Kind` (server/request_kind.h). Three passes
/// per query: cache-default (miss or hit), cache-default again (a hit if
/// the server caches), and cache-bypass (always computed). Every pass must
/// match a cold in-process engine of the same kind bit for bit — ids, every
/// score double and, for trips, every segment's provenance — which is the
/// "caching changes no output bit" check, exercised over the real wire.
template <typename Kind>
int RunVerify(const Flags& flags, const uots::TrajectoryDatabase& db,
              const std::vector<typename Kind::Query>& queries,
              typename Kind::Variant variant) {
  constexpr const char* label =
      std::is_same_v<Kind, uots::TripKind> ? "trip verify" : "verify";
  uots::BlockingClient client;
  uots::Status st =
      client.Connect(flags.host, static_cast<uint16_t>(flags.port));
  if (!st.ok()) {
    std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
    return 1;
  }
  int mismatches = 0;
  int64_t hits_observed = 0;
  static constexpr const char* kPassName[] = {"default", "default-again",
                                              "bypass"};
  for (size_t i = 0; i < queries.size(); ++i) {
    auto local = Kind::Run(*Kind::MakeEngine(db, variant, {}), queries[i]);
    if (!local.ok()) {
      std::fprintf(stderr, "%s: query %zu: local: %s\n", label, i,
                   local.status().ToString().c_str());
      return 1;
    }
    const auto& expected = (*local).*Kind::kOutputBody;
    for (int pass = 0; pass < 3; ++pass) {
      typename Kind::Request req = Kind::MakeRequest(queries[i], variant);
      req.id = static_cast<int64_t>(i) * 4 + pass;
      req.cache = pass == 2 ? uots::CacheMode::kBypass
                            : uots::CacheMode::kDefault;
      auto remote = client.Call(req);
      if (!remote.ok()) {
        std::fprintf(stderr, "%s: query %zu (%s): transport: %s\n", label, i,
                     kPassName[pass], remote.status().ToString().c_str());
        return 1;
      }
      if (!remote->ok()) {
        std::fprintf(stderr, "%s: query %zu (%s): server: %s (%s)\n", label,
                     i, kPassName[pass], ToString(remote->status),
                     remote->error.c_str());
        return 1;
      }
      if (remote->cached) ++hits_observed;
      const auto& got = (*remote).*Kind::kResponseBody;
      if (got != expected) {
        ++mismatches;
        std::fprintf(stderr, "%s: query %zu (%s): MISMATCH (%zu vs %zu)\n",
                     label, i, kPassName[pass], got.size(), expected.size());
      }
    }
  }
  if (mismatches == 0) {
    std::printf(
        "%s: %zu/%zu queries bit-for-bit identical across "
        "default/repeat/bypass (%" PRId64 " cache hits observed)\n",
        label, queries.size(), queries.size(), hits_observed);
    return 0;
  }
  std::printf("%s: %d mismatches over %zu queries\n", label, mismatches,
              queries.size());
  return 1;
}

/// Live-ingest drill. Generates `flags.ingest` fresh trips over the base
/// dataset's network, pushes them to the server over the wire, then runs
/// the full three-pass verify against a *local cold rebuild* over
/// base + ingested trips — the server's merged base+delta view must be
/// indistinguishable, bit for bit, from an index built from scratch.
int RunIngest(const Flags& flags, const uots::TrajectoryDatabase& db,
              const uots::WorkloadOptions& wopts, uots::AlgorithmKind kind) {
  // Fresh trips: same generator the datasets use, but a displaced seed so
  // no trip collides with the base set (the server dedups by content), and
  // terms drawn from the server's own vocabulary so ingest validation
  // accepts them.
  uots::TripGeneratorOptions gopts;
  gopts.num_trajectories = flags.ingest;
  if (db.vocabulary().size() > 0) {
    gopts.vocabulary_size = static_cast<int>(db.vocabulary().size());
  }
  gopts.seed = flags.seed + 0xA11CEULL;
  auto gen = uots::GenerateTrips(db.network(), gopts);
  if (!gen.ok()) {
    std::fprintf(stderr, "ingest: generate: %s\n",
                 gen.status().ToString().c_str());
    return 1;
  }
  std::vector<uots::Trajectory> trips;
  trips.reserve(gen->store.size());
  for (size_t i = 0; i < gen->store.size(); ++i) {
    trips.push_back(gen->store.Materialize(static_cast<uots::TrajId>(i)));
  }

  uots::BlockingClient client;
  uots::Status st =
      client.Connect(flags.host, static_cast<uint16_t>(flags.port));
  if (!st.ok()) {
    std::fprintf(stderr, "ingest: connect: %s\n", st.ToString().c_str());
    return 1;
  }
  const int64_t base_count = static_cast<int64_t>(db.store().size());
  const size_t batch =
      flags.ingest_batch > 0 ? static_cast<size_t>(flags.ingest_batch) : 64;
  size_t sent = 0;
  int64_t generation = 0;
  while (sent < trips.size()) {
    uots::IngestRequest req;
    req.id = static_cast<int64_t>(sent);
    const size_t end = std::min(sent + batch, trips.size());
    req.trajectories.assign(trips.begin() + static_cast<ptrdiff_t>(sent),
                            trips.begin() + static_cast<ptrdiff_t>(end));
    auto resp = client.Call(req);
    if (!resp.ok()) {
      std::fprintf(stderr, "ingest: transport: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    if (!resp->ok()) {
      std::fprintf(stderr, "ingest: server: %s (%s)\n", ToString(resp->status),
                   resp->error.c_str());
      return 1;
    }
    // Ids must land contiguously on top of the base range — that is the
    // contract that makes the local rebuild's ids line up with the server's.
    if (resp->first_traj != base_count + static_cast<int64_t>(sent) ||
        resp->accepted != static_cast<int64_t>(end - sent)) {
      std::fprintf(stderr,
                   "ingest: id drift: first_traj=%" PRId64 " accepted=%" PRId64
                   " (expected %" PRId64 " / %zu)\n",
                   resp->first_traj, resp->accepted,
                   base_count + static_cast<int64_t>(sent), end - sent);
      return 1;
    }
    generation = resp->generation;
    sent = end;
  }
  std::printf("ingest: %zu trips accepted over the wire (generation %" PRId64
              ")\n",
              sent, generation);

  // Reference: a from-scratch rebuild over base + ingested, exactly what a
  // restart after compaction would serve.
  uots::TrajectoryStore merged;
  for (size_t i = 0; i < db.store().size(); ++i) {
    auto added = merged.Add(db.store().Materialize(static_cast<uots::TrajId>(i)));
    if (!added.ok()) {
      std::fprintf(stderr, "ingest: rebuild: %s\n",
                   added.status().ToString().c_str());
      return 1;
    }
  }
  for (const auto& t : trips) {
    auto added = merged.Add(t);
    if (!added.ok()) {
      std::fprintf(stderr, "ingest: rebuild: %s\n",
                   added.status().ToString().c_str());
      return 1;
    }
  }
  uots::SimilarityOptions sim;
  sim.sigma_m = db.model().sigma_m();
  sim.sigma_s = db.model().sigma_s();
  sim.measure = db.model().textual().measure();
  uots::TrajectoryDatabase ref(db.network(), std::move(merged),
                               db.vocabulary(), sim);

  // The workload is regenerated over the merged database so queries can
  // (and do) surface ingested trips in their top-k.
  auto queries_r = uots::MakeWorkload(ref, wopts);
  if (!queries_r.ok()) {
    std::fprintf(stderr, "ingest: workload: %s\n",
                 queries_r.status().ToString().c_str());
    return 1;
  }
  return RunVerify<uots::RetrievalKind>(flags, ref, *queries_r, kind);
}

/// The load run for query kind `Kind`: closed or open loop over `queries`,
/// a latency/error report, and the BENCH_*.json row.
template <typename Kind>
int RunLoad(const Flags& flags,
            const std::vector<typename Kind::Query>& queries,
            typename Kind::Variant variant) {
  const uots::CacheMode cache_mode = flags.cache == "bypass"
                                         ? uots::CacheMode::kBypass
                                         : uots::CacheMode::kDefault;
  const size_t workload_size = queries.size();
  std::string admin_host;
  uint16_t admin_port = 0;
  AdminScrape scrape_before;
  const bool scrape = !flags.scrape_admin.empty();
  if (scrape) {
    if (!ParseHostPort(flags.scrape_admin, &admin_host, &admin_port)) {
      std::fprintf(stderr, "--scrape-admin wants HOST:PORT, got %s\n",
                   flags.scrape_admin.c_str());
      return 2;
    }
    if (!ScrapeAdmin(admin_host, admin_port, &scrape_before)) return 1;
  }

  const bool open_loop = flags.rate > 0.0;
  const int nconn = std::max(1, flags.connections);
  std::vector<WorkerStats> stats(static_cast<size_t>(nconn));
  std::vector<std::thread> threads;
  std::atomic<int64_t> next_request{0};
  std::atomic<bool> abort_run{false};

  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < nconn; ++t) {
    threads.emplace_back([&, t] {
      WorkerStats& my = stats[static_cast<size_t>(t)];
      uots::BlockingClient client;
      uots::Status st =
          client.Connect(flags.host, static_cast<uint16_t>(flags.port));
      if (!st.ok()) {
        std::fprintf(stderr, "conn %d: %s\n", t, st.ToString().c_str());
        ++my.transport_errors;
        abort_run.store(true);
        return;
      }
      // Open loop: this thread owns every rate/nconn-th tick of the global
      // schedule; a late tick is sent immediately (no coordinated omission
      // hiding — the latency clock starts at the *scheduled* time).
      const double per_thread_interval_ns =
          open_loop ? 1e9 * nconn / flags.rate : 0.0;
      const auto deadline_end =
          t0 + std::chrono::duration<double>(flags.duration_s);
      int64_t tick = 0;
      // Skewed query selection: per-thread sampler + RNG (seeded per
      // thread) so threads don't serialize on a shared generator.
      std::unique_ptr<uots::ZipfSampler> zipf_sampler;
      if (flags.zipf > 0.0) {
        zipf_sampler =
            std::make_unique<uots::ZipfSampler>(workload_size, flags.zipf);
      }
      uots::Rng rng(flags.seed + static_cast<uint64_t>(t) * 0x9e3779b9ULL);
      for (;;) {
        if (abort_run.load(std::memory_order_relaxed)) break;
        std::chrono::steady_clock::time_point scheduled;
        if (open_loop) {
          scheduled =
              t0 + std::chrono::nanoseconds(static_cast<int64_t>(
                       (static_cast<double>(tick) + t / double(nconn)) *
                       per_thread_interval_ns));
          if (scheduled >= deadline_end) break;
          std::this_thread::sleep_until(scheduled);
          ++tick;
        } else {
          const int64_t n = next_request.fetch_add(1);
          if (n >= flags.requests) break;
          scheduled = std::chrono::steady_clock::now();
        }
        int64_t qi;
        if (zipf_sampler != nullptr) {
          qi = static_cast<int64_t>(zipf_sampler->Sample(rng));
        } else if (open_loop) {
          qi = (tick + t) % static_cast<int64_t>(workload_size);
        } else {
          qi = next_request.load() % static_cast<int64_t>(workload_size);
        }
        typename Kind::Request req =
            Kind::MakeRequest(queries[static_cast<size_t>(qi)], variant);
        req.id = tick + t * 1000000;
        req.deadline_ms = flags.deadline_ms;
        req.cache = cache_mode;
        auto resp = client.Call(req);
        const auto done = std::chrono::steady_clock::now();
        if (!resp.ok()) {
          ++my.transport_errors;
          break;
        }
        my.Count(resp->status, resp->cached,
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     done - scheduled)
                     .count());
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  WorkerStats total;
  for (const auto& s : stats) total.Merge(s);
  const int64_t completed = total.ok + total.overloaded +
                            total.deadline_exceeded + total.other_errors;
  const double qps = wall_s > 0 ? static_cast<double>(completed) / wall_s : 0;

  const double hit_rate =
      total.ok > 0 ? static_cast<double>(total.cache_hits) / total.ok : 0.0;
  std::printf(
      "mode=%s connections=%d wall=%.2fs zipf=%.2f cache=%s\n"
      "completed=%" PRId64 " (%.1f qps)  ok=%" PRId64 " overloaded=%" PRId64
      " deadline=%" PRId64 " errors=%" PRId64 " transport=%" PRId64 "\n"
      "latency: %s\n",
      open_loop ? "open" : "closed", nconn, wall_s, flags.zipf,
      flags.cache.c_str(), completed, qps, total.ok, total.overloaded,
      total.deadline_exceeded, total.other_errors, total.transport_errors,
      total.latency.ToString().c_str());
  std::printf("cache: hits=%" PRId64 "/%" PRId64 " (%.1f%%)  hit p50=%.3f ms"
              "  miss p50=%.3f ms\n",
              total.cache_hits, total.ok, 100.0 * hit_rate,
              total.hit_latency.PercentileMs(50),
              total.miss_latency.PercentileMs(50));

  uots::bench::JsonReport report(flags.trip ? "trip_load" : "server_load");
  auto& row = report.AddRow();
  row.Set("mode", std::string(open_loop ? "open" : "closed"))
      .Set("city", flags.city)
      .Set("algorithm", flags.trip ? std::string("TRIP") : flags.algorithm)
      .Set("connections", static_cast<int64_t>(nconn))
      .Set("wall_seconds", wall_s)
      .Set("completed", completed)
      .Set("qps", qps)
      .Set("ok", total.ok)
      .Set("overloaded", total.overloaded)
      .Set("deadline_exceeded", total.deadline_exceeded)
      .Set("errors", total.other_errors)
      .Set("transport_errors", total.transport_errors)
      .Set("mean_ms", total.latency.MeanNs() / 1e6)
      .Set("p50_ms", total.latency.PercentileMs(50))
      .Set("p95_ms", total.latency.PercentileMs(95))
      .Set("p99_ms", total.latency.PercentileMs(99))
      .Set("max_ms", static_cast<double>(total.latency.max_ns()) / 1e6)
      .Set("zipf", flags.zipf)
      .Set("cache_mode", flags.cache)
      .Set("cache_hits", total.cache_hits)
      .Set("hit_rate", hit_rate)
      .Set("hit_p50_ms", total.hit_latency.PercentileMs(50))
      .Set("hit_p99_ms", total.hit_latency.PercentileMs(99))
      .Set("miss_p50_ms", total.miss_latency.PercentileMs(50))
      .Set("miss_p99_ms", total.miss_latency.PercentileMs(99));

  if (scrape) {
    AdminScrape after;
    if (!ScrapeAdmin(admin_host, admin_port, &after)) return 1;
    const double d_requests = after.requests - scrape_before.requests;
    const double d_ok = after.responses_ok - scrape_before.responses_ok;
    const double d_hits = after.cache_hits - scrape_before.cache_hits;
    const double server_hit_rate = d_ok > 0 ? d_hits / d_ok : 0.0;
    // Run-window quantiles from the cumulative-bucket deltas: what the
    // *server* measured arrival-to-response for exactly this run (the
    // lifetime quantile gauges would mix in whatever ran before us).
    const double sp50 = uots::promtext::DeltaQuantileSeconds(
        scrape_before.latency_buckets, after.latency_buckets, 50.0);
    const double sp95 = uots::promtext::DeltaQuantileSeconds(
        scrape_before.latency_buckets, after.latency_buckets, 95.0);
    const double sp99 = uots::promtext::DeltaQuantileSeconds(
        scrape_before.latency_buckets, after.latency_buckets, 99.0);
    std::printf(
        "server (scraped): requests=%.0f ok=%.0f hit_rate=%.1f%%  "
        "p50<=%.3f ms p95<=%.3f ms p99<=%.3f ms\n",
        d_requests, d_ok, 100.0 * server_hit_rate, sp50 * 1e3, sp95 * 1e3,
        sp99 * 1e3);
    row.Set("server_requests", d_requests)
        .Set("server_ok", d_ok)
        .Set("server_cache_hits", d_hits)
        .Set("server_hit_rate", server_hit_rate)
        .Set("server_p50_ms", sp50 * 1e3)
        .Set("server_p95_ms", sp95 * 1e3)
        .Set("server_p99_ms", sp99 * 1e3);
    if (flags.trip) {
      // The trip.* histogram family, folded in like server.*: run-window
      // planner wall time plus its harvest/assemble phase split.
      const double d_trips = after.trip_requests - scrape_before.trip_requests;
      const double tp50 = uots::promtext::DeltaQuantileSeconds(
          scrape_before.trip_plan_buckets, after.trip_plan_buckets, 50.0);
      const double tp95 = uots::promtext::DeltaQuantileSeconds(
          scrape_before.trip_plan_buckets, after.trip_plan_buckets, 95.0);
      const double tp99 = uots::promtext::DeltaQuantileSeconds(
          scrape_before.trip_plan_buckets, after.trip_plan_buckets, 99.0);
      const double th95 = uots::promtext::DeltaQuantileSeconds(
          scrape_before.trip_harvest_buckets, after.trip_harvest_buckets,
          95.0);
      const double ta95 = uots::promtext::DeltaQuantileSeconds(
          scrape_before.trip_assemble_buckets, after.trip_assemble_buckets,
          95.0);
      // An all-hits window computes no plans, so the trip.* histograms
      // gain no samples and every window quantile is NaN (null in the
      // JSON report) — say so instead of printing nan.
      if (std::isnan(tp50)) {
        std::printf(
            "server (trip.*): requests=%.0f (all served from cache; no "
            "planner samples in window)\n",
            d_trips);
      } else {
        std::printf(
            "server (trip.*): requests=%.0f plan p50<=%.3f ms p95<=%.3f ms "
            "p99<=%.3f ms  harvest p95<=%.3f ms assemble p95<=%.3f ms\n",
            d_trips, tp50 * 1e3, tp95 * 1e3, tp99 * 1e3, th95 * 1e3,
            ta95 * 1e3);
      }
      row.Set("server_trip_requests", d_trips)
          .Set("trip_plan_p50_ms", tp50 * 1e3)
          .Set("trip_plan_p95_ms", tp95 * 1e3)
          .Set("trip_plan_p99_ms", tp99 * 1e3)
          .Set("trip_harvest_p95_ms", th95 * 1e3)
          .Set("trip_assemble_p95_ms", ta95 * 1e3);
    }
  }
  if (!flags.json_out.empty()) report.WriteFile(flags.json_out);

  if (flags.min_hit_rate >= 0.0 && hit_rate < flags.min_hit_rate) {
    std::fprintf(stderr, "hit rate %.3f below required %.3f\n", hit_rate,
                 flags.min_hit_rate);
    return 1;
  }
  return total.transport_errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  constexpr double kMaxMs = uots::kMaxDeadlineMs;
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  for (int i = 1; i < argc; ++i) {
    std::string v;
    bool ok = true;  // false: the flag's value is malformed or out of range
    if (ParseFlag(argv[i], "--host", &v)) {
      flags.host = v;
    } else if (ParseFlag(argv[i], "--port", &v)) {
      ok = ParseNumber(v, 0, 65535, &flags.port);
    } else if (ParseFlag(argv[i], "--city", &v)) {
      flags.city = v;
    } else if (ParseFlag(argv[i], "--dataset", &v)) {
      flags.dataset = v;
    } else if (ParseFlag(argv[i], "--trajectories", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.trajectories);
    } else if (ParseFlag(argv[i], "--connections", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.connections);
    } else if (ParseFlag(argv[i], "--requests", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.requests);
    } else if (ParseFlag(argv[i], "--rate", &v)) {
      ok = ParseNumber(v, 0.0, kMaxDouble, &flags.rate);
    } else if (ParseFlag(argv[i], "--duration-s", &v)) {
      ok = ParseNumber(v, 0.0, kMaxMs / 1e3, &flags.duration_s);
    } else if (ParseFlag(argv[i], "--num-queries", &v)) {
      // At least one: the load loop cycles through the workload.
      ok = ParseNumber(v, 1, INT_MAX, &flags.num_queries);
    } else if (ParseFlag(argv[i], "--locations", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.locations);
    } else if (ParseFlag(argv[i], "--keywords", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.keywords);
    } else if (ParseFlag(argv[i], "--lambda", &v)) {
      ok = ParseNumber(v, 0.0, 1.0, &flags.lambda);
    } else if (ParseFlag(argv[i], "--k", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.k);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      ok = ParseNumber(v, uint64_t{0}, UINT64_MAX, &flags.seed);
    } else if (ParseFlag(argv[i], "--algorithm", &v)) {
      flags.algorithm = v;
    } else if (ParseFlag(argv[i], "--deadline-ms", &v)) {
      ok = ParseNumber(v, 0.0, kMaxMs, &flags.deadline_ms);
    } else if (ParseFlag(argv[i], "--zipf", &v)) {
      ok = ParseNumber(v, 0.0, 1.0, &flags.zipf);
    } else if (ParseFlag(argv[i], "--cache", &v)) {
      flags.cache = v;
    } else if (ParseFlag(argv[i], "--min-hit-rate", &v)) {
      ok = ParseNumber(v, -1.0, 1.0, &flags.min_hit_rate);
    } else if (ParseFlag(argv[i], "--json-out", &v)) {
      flags.json_out = v;
      flags.json_out_set = true;
    } else if (ParseFlag(argv[i], "--trip-gap", &v)) {
      ok = ParseNumber(v, 0.0, kMaxDouble, &flags.trip_gap);
    } else if (ParseBoolFlag(argv[i], "--trip")) {
      flags.trip = true;
    } else if (ParseFlag(argv[i], "--scrape-admin", &v)) {
      flags.scrape_admin = v;
    } else if (ParseFlag(argv[i], "--ingest", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.ingest);
    } else if (ParseFlag(argv[i], "--ingest-batch", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.ingest_batch);
    } else if (ParseBoolFlag(argv[i], "--verify")) {
      flags.verify = true;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad flag %s\n", argv[i]);
      Usage(argv[0]);
      return 2;
    }
  }

  auto kind_r = uots::ParseAlgorithmKind(flags.algorithm);
  if (!kind_r.ok()) {
    std::fprintf(stderr, "unknown algorithm %s\n", flags.algorithm.c_str());
    return 2;
  }
  const uots::AlgorithmKind kind = *kind_r;
  if (flags.cache != "default" && flags.cache != "bypass") {
    std::fprintf(stderr, "--cache must be default or bypass\n");
    return 2;
  }
  if (flags.trip && !flags.json_out_set) {
    flags.json_out = "BENCH_trip.json";
  }

  // The same deterministic dataset + workload the server loaded: needed for
  // --verify, and it gives the load generator realistic queries.
  std::unique_ptr<uots::TrajectoryDatabase> db;
  if (!flags.dataset.empty()) {
    std::printf("loading %s workload...\n", flags.dataset.c_str());
    std::fflush(stdout);
    auto loaded = uots::storage::LoadDatabaseFromPath(flags.dataset);
    if (!loaded.ok()) {
      std::fprintf(stderr, "dataset: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    db = std::move(loaded->db);
  } else {
    City city;
    if (flags.city == "BRN") {
      city = City::kBRN;
    } else if (flags.city == "NRN") {
      city = City::kNRN;
    } else {
      std::fprintf(stderr, "unknown city %s\n", flags.city.c_str());
      return 2;
    }
    std::printf("loading %s workload...\n", flags.city.c_str());
    std::fflush(stdout);
    db = flags.trajectories > 0
             ? uots::bench::LoadCity(city, flags.trajectories)
             : uots::bench::LoadCity(city);
  }
  uots::WorkloadOptions wopts;
  wopts.num_queries = flags.num_queries;
  wopts.num_locations = flags.locations;
  wopts.num_keywords = flags.keywords;
  wopts.lambda = flags.lambda;
  wopts.k = flags.k;
  wopts.seed = flags.seed;

  if (flags.ingest > 0) {
    return RunIngest(flags, *db, wopts, kind);
  }

  if (flags.trip) {
    uots::TripWorkloadOptions topts;
    topts.num_queries = flags.num_queries;
    topts.num_locations = flags.locations;
    topts.num_keywords = flags.keywords;
    topts.lambda = flags.lambda;
    topts.k = flags.k;
    topts.gap_budget_m = flags.trip_gap;
    topts.seed = flags.seed;
    auto tq = uots::MakeTripWorkload(*db, topts);
    if (!tq.ok()) {
      std::fprintf(stderr, "trip workload: %s\n",
                   tq.status().ToString().c_str());
      return 1;
    }
    const auto planner = uots::TripKind::Variant::kPlanner;
    return flags.verify ? RunVerify<uots::TripKind>(flags, *db, *tq, planner)
                        : RunLoad<uots::TripKind>(flags, *tq, planner);
  }
  auto queries = uots::MakeWorkload(*db, wopts);
  if (!queries.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 queries.status().ToString().c_str());
    return 1;
  }
  return flags.verify
             ? RunVerify<uots::RetrievalKind>(flags, *db, *queries, kind)
             : RunLoad<uots::RetrievalKind>(flags, *queries, kind);
}
