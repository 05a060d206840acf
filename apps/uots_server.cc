// The UOTS query server binary.
//
//   $ ./uots_server --city=BRN --port=7670 --threads=8
//   $ ./uots_server --dataset=/path/to/brn.snap     # snapshot or text file
//   $ ./uots_server --city=BRN --admin-port=7671    # + introspection plane
//
// With --admin-port the server also answers HTTP on that port: /metrics
// (Prometheus), /statusz, /healthz, /slowqueries, and POST
// /tracing?sample=N — see src/server/admin.h.
//
// Loads (or generates+caches) a benchmark city — or, with --dataset, any
// snapshot/text dataset path — binds the TCP front-end,
// and serves length-prefixed JSON queries until SIGINT/SIGTERM, which
// trigger a graceful drain: the listener closes, in-flight requests finish,
// buffered responses flush, and the process exits 0 after printing every
// counter and latency histogram (read from its owner, as /metrics does;
// one "<family>: n=.. mean=.. p50=.." line per histogram).

#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "cache/distance_field_cache.h"
#include "common/datasets.h"
#include "flags.h"
#include "server/server.h"
#include "storage/resolver.h"

namespace {

using uots::bench::City;
using uots::cli::ParseFlag;
using uots::cli::ParseNumber;

struct Flags {
  std::string bind = "127.0.0.1";
  int port = 7670;
  std::string city = "BRN";
  std::string dataset;   // snapshot or text path; overrides --city
  int trajectories = 0;  // 0 = city default
  int threads = 0;       // 0 = hardware concurrency
  int max_inflight = 256;
  double default_deadline_ms = 0.0;
  double idle_timeout_ms = 60000.0;
  double drain_timeout_ms = 10000.0;
  int max_connections = 1024;
  int cache_max_entries = 0;  // 0 = result cache off
  double cache_ttl_ms = 0.0;
  int cache_shards = 8;
  int distance_cache_mb = 0;  // 0 = tier-2 expansion cache off
  bool oracle = true;  // use a snapshot-baked distance oracle when present
  int admin_port = -1;  // -1 = admin plane off; 0 = ephemeral
  std::string admin_bind = "127.0.0.1";
  std::string compact_snapshot;     // empty = compaction off
  double compact_interval_ms = 0.0; // 0 = manual (POST /compact) only
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--bind=ADDR] [--port=N] [--city=BRN|NRN]\n"
      "          [--dataset=PATH (.snap or .network/.trajectories)]\n"
      "          [--trajectories=N] [--threads=N] [--max-inflight=N]\n"
      "          [--default-deadline-ms=MS] [--idle-timeout-ms=MS]\n"
      "          [--drain-timeout-ms=MS] [--max-connections=N]\n"
      "          [--cache-max-entries=N] [--cache-ttl-ms=MS]\n"
      "          [--cache-shards=N] [--distance-cache-mb=N]\n"
      "          [--oracle=on|off] [--admin-port=N] [--admin-bind=ADDR]\n"
      "          [--compact-snapshot=PATH] [--compact-interval-ms=MS]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    bool ok = true;  // false: the flag's value is malformed or out of range
    if (ParseFlag(argv[i], "--bind", &v)) {
      flags.bind = v;
    } else if (ParseFlag(argv[i], "--port", &v)) {
      ok = ParseNumber(v, 0, 65535, &flags.port);
    } else if (ParseFlag(argv[i], "--city", &v)) {
      flags.city = v;
    } else if (ParseFlag(argv[i], "--dataset", &v)) {
      flags.dataset = v;
    } else if (ParseFlag(argv[i], "--trajectories", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.trajectories);
    } else if (ParseFlag(argv[i], "--threads", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.threads);
    } else if (ParseFlag(argv[i], "--max-inflight", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.max_inflight);
    } else if (ParseFlag(argv[i], "--default-deadline-ms", &v)) {
      ok = ParseNumber(v, 0.0, uots::kMaxDeadlineMs,
                       &flags.default_deadline_ms);
    } else if (ParseFlag(argv[i], "--idle-timeout-ms", &v)) {
      ok = ParseNumber(v, 0.0, uots::kMaxDeadlineMs, &flags.idle_timeout_ms);
    } else if (ParseFlag(argv[i], "--drain-timeout-ms", &v)) {
      ok = ParseNumber(v, 0.0, uots::kMaxDeadlineMs, &flags.drain_timeout_ms);
    } else if (ParseFlag(argv[i], "--max-connections", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.max_connections);
    } else if (ParseFlag(argv[i], "--cache-max-entries", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.cache_max_entries);
    } else if (ParseFlag(argv[i], "--cache-ttl-ms", &v)) {
      ok = ParseNumber(v, 0.0, uots::kMaxDeadlineMs, &flags.cache_ttl_ms);
    } else if (ParseFlag(argv[i], "--cache-shards", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.cache_shards);
    } else if (ParseFlag(argv[i], "--distance-cache-mb", &v)) {
      ok = ParseNumber(v, 0, INT_MAX, &flags.distance_cache_mb);
    } else if (ParseFlag(argv[i], "--oracle", &v)) {
      if (v != "on" && v != "off") {
        std::fprintf(stderr, "--oracle takes on or off\n");
        return 2;
      }
      flags.oracle = v == "on";
    } else if (ParseFlag(argv[i], "--admin-port", &v)) {
      ok = ParseNumber(v, 0, 65535, &flags.admin_port);
    } else if (ParseFlag(argv[i], "--admin-bind", &v)) {
      flags.admin_bind = v;
    } else if (ParseFlag(argv[i], "--compact-snapshot", &v)) {
      flags.compact_snapshot = v;
    } else if (ParseFlag(argv[i], "--compact-interval-ms", &v)) {
      ok = ParseNumber(v, 0.0, uots::kMaxDeadlineMs,
                       &flags.compact_interval_ms);
    } else {
      ok = false;
    }
    if (!ok) {
      Usage(argv[0]);
      return 2;
    }
  }

  std::unique_ptr<uots::TrajectoryDatabase> db;
  double load_seconds = 0.0;
  const char* source = "generated/cached";
  if (!flags.dataset.empty()) {
    std::printf("loading %s...\n", flags.dataset.c_str());
    std::fflush(stdout);
    auto loaded = uots::storage::LoadDatabaseFromPath(flags.dataset);
    if (!loaded.ok()) {
      std::fprintf(stderr, "dataset: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    db = std::move(loaded->db);
    load_seconds = loaded->load_seconds;
    source = uots::storage::ToString(loaded->source);
  } else {
    City city;
    if (flags.city == "BRN") {
      city = City::kBRN;
    } else if (flags.city == "NRN") {
      city = City::kNRN;
    } else {
      std::fprintf(stderr, "unknown city %s (use BRN or NRN)\n",
                   flags.city.c_str());
      return 2;
    }
    std::printf("loading %s...\n", flags.city.c_str());
    std::fflush(stdout);
    const auto t0 = std::chrono::steady_clock::now();
    db = flags.trajectories > 0
             ? uots::bench::LoadCity(city, flags.trajectories)
             : uots::bench::LoadCity(city);
    load_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  // Built before the memory report so the report counts it, and before
  // serving so no request pays for it.
  if (flags.oracle && db->oracle() != nullptr) db->oracle()->core();
  const uots::MemoryBreakdown mem = db->Memory();
  std::printf(
      "dataset: %zu vertices, %zu trajectories, %zu terms (%s, %.3fs)\n"
      "memory: %.1f MB heap + %.1f MB snapshot-mapped\n",
      db->network().NumVertices(), db->store().size(),
      db->vocabulary().size(), source, load_seconds,
      static_cast<double>(mem.heap_bytes) / (1024.0 * 1024.0),
      static_cast<double>(mem.mmap_bytes) / (1024.0 * 1024.0));

  uots::ServerOptions opts;
  opts.bind_address = flags.bind;
  opts.port = static_cast<uint16_t>(flags.port);
  opts.max_connections = static_cast<size_t>(flags.max_connections);
  opts.idle_timeout_ms = flags.idle_timeout_ms;
  opts.drain_timeout_ms = flags.drain_timeout_ms;
  opts.service.threads = flags.threads;
  opts.service.max_inflight = static_cast<size_t>(flags.max_inflight);
  opts.service.default_deadline_ms = flags.default_deadline_ms;
  if (flags.cache_max_entries > 0) {
    opts.service.cache_max_entries =
        static_cast<size_t>(flags.cache_max_entries);
    opts.service.cache_ttl_ms = flags.cache_ttl_ms;
    opts.service.cache_shards = static_cast<size_t>(
        flags.cache_shards > 0 ? flags.cache_shards : 8);
  }
  std::shared_ptr<uots::DistanceFieldCache> dcache;
  if (flags.distance_cache_mb > 0) {
    uots::DistanceFieldCache::Options dopts;
    dopts.max_bytes = static_cast<size_t>(flags.distance_cache_mb) << 20;
    dcache = std::make_shared<uots::DistanceFieldCache>(dopts);
    opts.service.uots.distance_cache = dcache;
  }
  opts.service.uots.use_oracle = flags.oracle;
  opts.admin.port = flags.admin_port;
  opts.admin.bind_address = flags.admin_bind;
  opts.compact_snapshot_path = flags.compact_snapshot;
  opts.compact_interval_ms = flags.compact_interval_ms;
  opts.dataset_source =
      !flags.dataset.empty()
          ? flags.dataset + " (" + source + ")"
          : flags.city + " (" + std::string(source) + ")";

  // SIGINT/SIGTERM ride the event loop via a signalfd so shutdown is just
  // another loop event — no async-signal-safety gymnastics. Block them
  // BEFORE the server spawns its worker pool: the signal mask is inherited
  // at thread creation, and a process-directed signal may be delivered to
  // any thread that has it unblocked.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigprocmask(SIG_BLOCK, &mask, nullptr);

  std::shared_ptr<const uots::TrajectoryDatabase> shared_db = std::move(db);
  uots::UotsServer server(shared_db, opts);
  uots::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  const int sig_fd = signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
  if (sig_fd < 0) {
    std::fprintf(stderr, "signalfd: %s\n", std::strerror(errno));
    return 1;
  }
  st = server.loop().AddFd(sig_fd, EPOLLIN, [&server, sig_fd](uint32_t) {
    signalfd_siginfo info;
    while (read(sig_fd, &info, sizeof(info)) == sizeof(info)) {
      std::printf("signal %u: draining...\n", info.ssi_signo);
      std::fflush(stdout);
      server.RequestShutdown();
    }
  });
  if (!st.ok()) {
    std::fprintf(stderr, "signal hookup: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("serving on %s:%u (%zu workers, max %zu in flight)\n",
              flags.bind.c_str(), server.port(), server.service().num_threads(),
              opts.service.max_inflight);
  if (server.admin_port() != 0) {
    std::printf(
        "admin on http://%s:%u (/metrics /statusz /healthz /slowqueries "
        "/tracing)\n",
        flags.admin_bind.c_str(), server.admin_port());
  }
  if (opts.service.cache_max_entries > 0) {
    std::printf("result cache: %zu entries, ttl %.0f ms, %zu shards\n",
                opts.service.cache_max_entries, opts.service.cache_ttl_ms,
                opts.service.cache_shards);
  }
  if (dcache != nullptr) {
    std::printf("distance cache: %d MB\n", flags.distance_cache_mb);
  }
  if (const uots::DistanceOracle* oracle = shared_db->oracle()) {
    std::printf("distance oracle: %zu vertices, %zu upward arcs (%s)\n",
                oracle->NumVertices(), oracle->NumUpEdges(),
                flags.oracle ? "on" : "off");
    if (flags.oracle) {
      std::printf("oracle core table: %u nodes, built in %.1f ms\n",
                  oracle->core().size, oracle->core().build_ms);
    }
  }
  if (!flags.compact_snapshot.empty()) {
    std::printf("compaction: -> %s (%s)\n", flags.compact_snapshot.c_str(),
                flags.compact_interval_ms > 0.0 ? "periodic" : "manual");
  }
  std::fflush(stdout);

  server.Run();
  close(sig_fd);

  std::printf("--- server counters ---\n");
  const uots::ServerCounters& c = server.counters();
  for (const uots::ServerCounterField& f : uots::ServerCounterFields()) {
    std::printf("%s=%lld\n", f.key, static_cast<long long>(c.*f.member));
  }
  const uots::Ingestor& ingest = server.ingestor();
  std::printf(
      "ingest: batches=%lld rejected_trips=%lld generation=%llu "
      "delta_trajectories=%zu delta_bytes=%zu\n",
      static_cast<long long>(ingest.batches_total()),
      static_cast<long long>(ingest.rejected_total()),
      static_cast<unsigned long long>(ingest.generation()),
      ingest.delta_trajectories(), ingest.delta_bytes());
  uots::UotsService& service = server.service();
  std::printf("oracle: lookups=%lld pruned_candidates=%lld\n",
              static_cast<long long>(service.oracle_lookups()),
              static_cast<long long>(service.oracle_pruned_candidates()));
  if (const uots::ResultCache* rc = service.result_cache()) {
    const uots::ResultCache::Stats s = rc->stats();
    std::printf(
        "result cache: hits=%lld misses=%lld evictions=%lld expired=%lld "
        "entries=%lld bytes=%lld\n",
        static_cast<long long>(s.hits), static_cast<long long>(s.misses),
        static_cast<long long>(s.evictions), static_cast<long long>(s.expired),
        static_cast<long long>(s.entries), static_cast<long long>(s.bytes));
  }
  if (dcache != nullptr) {
    const uots::DistanceFieldCache::Stats s = dcache->stats();
    std::printf(
        "distance cache: hits=%lld misses=%lld publishes=%lld rejected=%lld "
        "evictions=%lld entries=%lld bytes=%lld\n",
        static_cast<long long>(s.hits), static_cast<long long>(s.misses),
        static_cast<long long>(s.publishes), static_cast<long long>(s.rejected),
        static_cast<long long>(s.evictions), static_cast<long long>(s.entries),
        static_cast<long long>(s.bytes));
  }
  std::printf("--- metrics ---\n");
  const uots::ServerHistograms& h = server.histograms();
  for (const uots::ServerHistogramField& f : uots::ServerHistogramFields()) {
    std::printf("%s: %s\n", f.family, (h.*f.member).ToString().c_str());
  }
  return 0;
}
