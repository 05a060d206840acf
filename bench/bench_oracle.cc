// Distance-oracle experiment (EXPERIMENTS.md O1).
//
//   $ ./bench/bench_oracle [--sizes=40,80,126] [--queries=24] [--pairs=20000]
//
// Three measurements per network scale (s x s perturbed grids spanning
// roughly 1.5k vertices up to ~10x that; --sizes overrides):
//
//   1. construction — DistanceOracle::Build wall time, the core table's
//      build time (core_ms), shortcut count, witness-search settles,
//      upward-arc count, and the oracle's memory with the core table;
//   2. kernel — mean exact sd(u, v) latency and nodes scanned per pair of
//      the two-sided CH sweep versus a plain point-to-point Dijkstra on
//      the same random pairs (Dijkstra gets the first 256 pairs; it is
//      the slow side), whose answers must match bit for bit;
//   3. end-to-end — the same UOTS workload with the oracle on vs off:
//      time and expansion settles per query on each side. Answers must be
//      bit-identical (ids, scores, spatial, textual); the run FAILS
//      otherwise. The speedup column is the paper-facing number.
//
// Results land in BENCH_oracle.json.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/report.h"
#include "core/batch.h"
#include "core/workload.h"
#include "net/dijkstra.h"
#include "net/generators.h"
#include "oracle/ch_oracle.h"
#include "oracle/querier.h"
#include "traj/generator.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

struct Flags {
  std::string sizes = "40,80,126";
  int queries = 24;
  int pairs = 20000;
  int trips = 0;  // 0 = scale with the network (2 per vertex, min 2000)
  std::string json_out = "BENCH_oracle.json";
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

std::vector<int> ParseSizes(const std::string& csv) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(std::atoi(tok.c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// One workload pass with a fresh engine per query (the RunQuery service
/// path). Returns total wall seconds; appends each query's answer.
double RunPass(const uots::TrajectoryDatabase& db,
               const std::vector<uots::UotsQuery>& queries, bool use_oracle,
               std::vector<std::vector<uots::ScoredTrajectory>>* answers,
               uots::QueryStats* total) {
  uots::QueryOptions opts;
  opts.algorithm = uots::AlgorithmKind::kUots;
  opts.uots.use_oracle = use_oracle;
  uots::WallTimer timer;
  for (const auto& q : queries) {
    auto r = uots::RunQuery(db, q, opts);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    if (answers != nullptr) answers->push_back(std::move(r->items));
    if (total != nullptr) *total += r->stats;
  }
  return timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--sizes", &v)) {
      flags.sizes = v;
    } else if (ParseFlag(argv[i], "--queries", &v)) {
      flags.queries = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--pairs", &v)) {
      flags.pairs = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--trips", &v)) {
      flags.trips = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--json-out", &v)) {
      flags.json_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  uots::bench::Table table({"vertices", "build_s", "core_ms", "shortcuts",
                            "witness_settled", "oracle_mb", "scans/pair",
                            "oracle_us", "dijkstra_us", "kernel_x", "uots_ms",
                            "oracle_ms", "e2e_x", "uots_settled/q",
                            "oracle_settled/q"},
                           /*width=*/16);
  table.PrintHeader();
  uots::bench::JsonReport report("oracle");

  for (const int side : ParseSizes(flags.sizes)) {
    uots::GridNetworkOptions net_opts;
    net_opts.rows = side;
    net_opts.cols = side;
    net_opts.seed = 5;
    auto g = uots::MakeGridNetwork(net_opts);
    if (!g.ok()) {
      std::fprintf(stderr, "network: %s\n", g.status().ToString().c_str());
      return 1;
    }
    const int n_trips =
        flags.trips > 0
            ? flags.trips
            : std::max(2000, static_cast<int>(g->NumVertices()) * 2);
    uots::TripGeneratorOptions trip_opts;
    trip_opts.num_trajectories = n_trips;
    trip_opts.seed = 6;
    auto trips = uots::GenerateTrips(*g, trip_opts);
    if (!trips.ok()) {
      std::fprintf(stderr, "trips: %s\n", trips.status().ToString().c_str());
      return 1;
    }
    auto db = std::make_unique<uots::TrajectoryDatabase>(
        std::move(*g), std::move(trips->store), std::move(trips->vocabulary));
    const auto num_vertices =
        static_cast<uots::VertexId>(db->network().NumVertices());

    // 1. Construction.
    uots::OracleBuildStats build_stats;
    auto oracle = uots::DistanceOracle::Build(db->network(), {}, &build_stats);
    if (!oracle.ok()) {
      std::fprintf(stderr, "oracle: %s\n", oracle.status().ToString().c_str());
      return 1;
    }
    const double core_ms = oracle->core().build_ms;
    const uots::MemoryBreakdown mem = oracle->Memory();  // with the table
    const double oracle_mb = static_cast<double>(mem.heap_bytes +
                                                 mem.mmap_bytes) /
                             (1024.0 * 1024.0);

    // 2. Kernel latency on identical random pairs. The Dijkstra side runs
    // a smaller prefix of the same pair sequence — it is 100-10000x
    // slower, and mean latency stabilizes quickly.
    std::vector<std::pair<uots::VertexId, uots::VertexId>> pairs;
    uots::Rng rng(17);
    for (int i = 0; i < std::max(1, flags.pairs); ++i) {
      pairs.emplace_back(static_cast<uots::VertexId>(rng.Next() % num_vertices),
                         static_cast<uots::VertexId>(rng.Next() % num_vertices));
    }
    uots::OracleQuerier querier(*oracle);
    double sink = 0.0;
    uots::WallTimer oracle_timer;
    for (const auto& [s, t] : pairs) sink += querier.Distance(s, t);
    const double oracle_us =
        oracle_timer.ElapsedSeconds() / pairs.size() * 1e6;
    // Hierarchy quality: nodes scanned per pairwise query (both upward
    // sweeps combined). Grows ~polylog(n) for a healthy ordering.
    const double scans_per_pair =
        static_cast<double>(querier.SettledVertices()) /
        static_cast<double>(pairs.size());

    const size_t dij_pairs = std::min(pairs.size(), size_t{256});
    std::vector<double> dij_dist(dij_pairs);
    uots::WallTimer dij_timer;
    for (size_t i = 0; i < dij_pairs; ++i) {
      dij_dist[i] = uots::ShortestPathDistance(db->network(), pairs[i].first,
                                               pairs[i].second);
    }
    const double dij_us = dij_timer.ElapsedSeconds() / dij_pairs * 1e6;
    if (sink < 0.0) std::printf("impossible\n");  // keep `sink` live

    // Cross-check the sampled prefix while we are here: the two kernels
    // must agree bit-for-bit (the full property test lives in tests/).
    for (size_t i = 0; i < dij_pairs; ++i) {
      if (querier.Distance(pairs[i].first, pairs[i].second) != dij_dist[i]) {
        std::fprintf(stderr, "FAIL: sd mismatch on pair %zu\n", i);
        return 1;
      }
    }

    // 3. End-to-end UOTS with the oracle off, then on, same workload.
    // Expansion-heavy regime: fully decoupled preference keywords (the
    // user asks for qualities, not places they already stand at), so the
    // high-SimT candidates are scattered across the whole network and the
    // baseline must drag every expansion out to each of them before its
    // bound lets go. This is the paper's user-oriented scenario and the
    // case the oracle finisher targets.
    uots::WorkloadOptions wopts;
    wopts.num_queries = flags.queries;
    wopts.decouple_keywords = true;
    wopts.keyword_noise = 0.1;
    wopts.num_keywords = 8;
    wopts.seed = 23;
    auto queries = uots::MakeWorkload(*db, wopts);
    if (!queries.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   queries.status().ToString().c_str());
      return 1;
    }
    std::vector<std::vector<uots::ScoredTrajectory>> base_answers;
    uots::QueryStats base_stats;
    // Warm one pass (page in indexes), then measure.
    RunPass(*db, *queries, /*use_oracle=*/false, nullptr, nullptr);
    const double base_s =
        RunPass(*db, *queries, false, &base_answers, &base_stats);

    db->AttachOracle(
        std::make_shared<uots::DistanceOracle>(std::move(*oracle)));
    std::vector<std::vector<uots::ScoredTrajectory>> oracle_answers;
    uots::QueryStats oracle_stats;
    RunPass(*db, *queries, /*use_oracle=*/true, nullptr, nullptr);
    const double oracle_s =
        RunPass(*db, *queries, true, &oracle_answers, &oracle_stats);

    bool identical = base_answers.size() == oracle_answers.size();
    for (size_t i = 0; identical && i < base_answers.size(); ++i) {
      identical = base_answers[i].size() == oracle_answers[i].size();
      for (size_t j = 0; identical && j < base_answers[i].size(); ++j) {
        const auto& a = base_answers[i][j];
        const auto& b = oracle_answers[i][j];
        identical = a.id == b.id && a.score == b.score &&
                    a.spatial_sim == b.spatial_sim &&
                    a.textual_sim == b.textual_sim;
      }
    }
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: oracle answers differ from expansion baseline "
                   "(side=%d)\n",
                   side);
      return 1;
    }

    const double base_ms = base_s / queries->size() * 1e3;
    const double oracle_ms = oracle_s / queries->size() * 1e3;
    const auto per_query = [&](int64_t total) {
      return static_cast<double>(total) / static_cast<double>(queries->size());
    };
    char c[15][32];
    std::snprintf(c[0], sizeof(c[0]), "%u", num_vertices);
    std::snprintf(c[1], sizeof(c[1]), "%.3f", build_stats.seconds);
    std::snprintf(c[2], sizeof(c[2]), "%.2f", core_ms);
    std::snprintf(c[3], sizeof(c[3]), "%" PRIu64, build_stats.shortcuts);
    std::snprintf(c[4], sizeof(c[4]), "%" PRIu64, build_stats.witness_settled);
    std::snprintf(c[5], sizeof(c[5]), "%.2f", oracle_mb);
    std::snprintf(c[6], sizeof(c[6]), "%.1f", scans_per_pair);
    std::snprintf(c[7], sizeof(c[7]), "%.2f", oracle_us);
    std::snprintf(c[8], sizeof(c[8]), "%.1f", dij_us);
    std::snprintf(c[9], sizeof(c[9]), "%.0fx", dij_us / oracle_us);
    std::snprintf(c[10], sizeof(c[10]), "%.3f", base_ms);
    std::snprintf(c[11], sizeof(c[11]), "%.3f", oracle_ms);
    std::snprintf(c[12], sizeof(c[12]), "%.1fx", base_ms / oracle_ms);
    std::snprintf(c[13], sizeof(c[13]), "%.0f",
                  per_query(base_stats.settled_vertices));
    std::snprintf(c[14], sizeof(c[14]), "%.0f",
                  per_query(oracle_stats.settled_vertices));
    table.PrintRow({c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], c[8],
                    c[9], c[10], c[11], c[12], c[13], c[14]});

    auto& row = report.AddRow();
    row.Set("vertices", static_cast<int64_t>(num_vertices))
        .Set("trajectories", static_cast<int64_t>(n_trips))
        .Set("build_seconds", build_stats.seconds)
        .Set("core_ms", core_ms)
        .Set("shortcuts", static_cast<int64_t>(build_stats.shortcuts))
        .Set("up_edges",
             static_cast<int64_t>(db->oracle()->NumUpEdges()))
        .Set("witness_searches",
             static_cast<int64_t>(build_stats.witness_searches))
        .Set("witness_settled",
             static_cast<int64_t>(build_stats.witness_settled))
        .Set("oracle_mb", oracle_mb)
        .Set("kernel_oracle_us", oracle_us)
        .Set("kernel_scanned_per_pair", scans_per_pair)
        .Set("kernel_dijkstra_us", dij_us)
        .Set("kernel_speedup", dij_us / oracle_us)
        .Set("e2e_baseline_ms_per_query", base_ms)
        .Set("e2e_oracle_ms_per_query", oracle_ms)
        .Set("e2e_speedup", base_ms / oracle_ms)
        .Set("answers_identical", static_cast<int64_t>(identical ? 1 : 0))
        .Set("oracle_lookups", oracle_stats.oracle_lookups)
        .Set("oracle_pruned_candidates",
             oracle_stats.oracle_pruned_candidates)
        .Set("baseline_settled", base_stats.settled_vertices)
        .Set("oracle_settled", oracle_stats.settled_vertices);
  }

  if (!flags.json_out.empty()) report.WriteFile(flags.json_out);
  return 0;
}
