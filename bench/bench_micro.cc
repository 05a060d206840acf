// Experiment M1 — substrate micro-benchmarks (google-benchmark).
//
// Costs of the primitives the search is built from: full Dijkstra,
// incremental expansion steps, A* with the Euclidean heuristic (the trip
// generator's router), keyword-index probes, and textual similarity.
// Useful for spotting regressions.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/datasets.h"
#include "common/report.h"
#include "net/astar.h"
#include "net/dijkstra.h"
#include "net/expansion.h"
#include "net/generators.h"
#include "text/inverted_index.h"
#include "util/rng.h"
#include "util/trace.h"

namespace uots {
namespace bench {
namespace {

const TrajectoryDatabase& Db() {
  static auto* db = LoadCity(City::kBRN, 10000).release();
  return *db;
}

void BM_DijkstraFullTree(benchmark::State& state) {
  const auto& g = Db().network();
  Rng rng(1);
  for (auto _ : state) {
    const VertexId s = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    benchmark::DoNotOptimize(ComputeShortestPathTree(g, s));
  }
}
BENCHMARK(BM_DijkstraFullTree)->Unit(benchmark::kMillisecond);

void BM_ExpansionSteps(benchmark::State& state) {
  const auto& g = Db().network();
  NetworkExpansion ex(g);
  Rng rng(2);
  const int64_t steps = state.range(0);
  for (auto _ : state) {
    ex.Reset(static_cast<VertexId>(rng.Uniform(g.NumVertices())));
    VertexId v;
    double d;
    for (int64_t i = 0; i < steps && ex.Step(&v, &d); ++i) {
    }
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_ExpansionSteps)->Arg(100)->Arg(1000)->Arg(5000);

void BM_ExpansionStepsDense(benchmark::State& state) {
  // Denser substrate than the generated cities (k=8 vs 3 nearest
  // neighbors): decrease-key traffic grows with degree, which is the
  // regime where the indexed frontier separates from a lazy queue.
  static const RoadNetwork* dense = [] {
    RandomGeometricOptions opts;
    opts.num_vertices = 50000;
    opts.k_nearest = 8;
    opts.seed = 11;
    auto g = MakeRandomGeometricNetwork(opts);
    return new RoadNetwork(std::move(*g));
  }();
  NetworkExpansion ex(*dense);
  Rng rng(6);
  const int64_t steps = state.range(0);
  for (auto _ : state) {
    ex.Reset(static_cast<VertexId>(rng.Uniform(dense->NumVertices())));
    VertexId v;
    double d;
    for (int64_t i = 0; i < steps && ex.Step(&v, &d); ++i) {
    }
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_ExpansionStepsDense)->Arg(1000)->Arg(5000);

void BM_AStarEuclidean(benchmark::State& state) {
  const auto& g = Db().network();
  AStarEngine astar(g);
  Rng rng(3);
  int64_t settled = 0;
  for (auto _ : state) {
    const VertexId s = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    const VertexId t = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    const PathResult r = astar.FindPath(s, t);
    settled += r.settled;
    benchmark::DoNotOptimize(r.distance);
  }
  state.counters["settled/query"] =
      static_cast<double>(settled) / state.iterations();
}
BENCHMARK(BM_AStarEuclidean)->Unit(benchmark::kMicrosecond);

void BM_KeywordIndexProbe(benchmark::State& state) {
  const auto& db = Db();
  Rng rng(4);
  TextualSimilarity sim;
  std::vector<ScoredDoc> out;
  for (auto _ : state) {
    std::vector<TermId> terms;
    for (int i = 0; i < 5; ++i) {
      terms.push_back(static_cast<TermId>(rng.Uniform(1000)));
    }
    db.keyword_index().ScoreCandidates(KeywordSet(std::move(terms)), sim, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KeywordIndexProbe)->Unit(benchmark::kMicrosecond);

void BM_JaccardScore(benchmark::State& state) {
  TextualSimilarity sim;
  const KeywordSet a({1, 5, 9, 13, 17, 21});
  const KeywordSet b({5, 9, 10, 21, 30});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Score(a, b));
  }
}
BENCHMARK(BM_JaccardScore);

void BM_VertexIndexLookup(benchmark::State& state) {
  const auto& db = Db();
  Rng rng(5);
  size_t total = 0;
  for (auto _ : state) {
    const VertexId v =
        static_cast<VertexId>(rng.Uniform(db.network().NumVertices()));
    total += db.vertex_index().TrajectoriesAt(v).size();
  }
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_VertexIndexLookup);

void BM_UotsQuery(benchmark::State& state) {
  // Whole-engine benchmark over the instrumented search path; with
  // UOTS_TRACE_ACTIVE=1 (see main) it doubles as the tracer-overhead
  // measurement: compare against a run without the variable, and against
  // a -DUOTS_TRACE=OFF build.
  const auto& db = Db();
  static const std::vector<UotsQuery>* queries = [] {
    WorkloadOptions wopts;
    wopts.num_queries = 16;
    wopts.seed = 7;
    return new std::vector<UotsQuery>(DefaultWorkload(Db(), wopts));
  }();
  auto engine = CreateAlgorithm(db, AlgorithmKind::kUots);
  size_t qi = 0;
  for (auto _ : state) {
    auto r = engine->Search((*queries)[qi]);
    if (!r.ok()) {
      state.SkipWithError("search failed");
      break;
    }
    benchmark::DoNotOptimize(r->items.data());
    qi = (qi + 1) % queries->size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UotsQuery)->Unit(benchmark::kMillisecond);

// Forwards every run to the normal console table while capturing it as a
// JsonReport row, so the binary emits BENCH_micro.json as a side effect.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(JsonReport* report)
      : ConsoleReporter(isatty(fileno(stdout)) ? OO_Defaults : OO_Tabular),
        report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      auto& row = report_->AddRow();
      row.Set("name", run.benchmark_name())
          .Set("time_unit", benchmark::GetTimeUnitString(run.time_unit))
          .Set("real_time", run.GetAdjustedRealTime())
          .Set("cpu_time", run.GetAdjustedCPUTime())
          .Set("iterations", static_cast<int64_t>(run.iterations));
      for (const auto& [key, counter] : run.counters) {
        row.Set(key, static_cast<double>(counter));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  JsonReport* report_;
};

}  // namespace
}  // namespace bench
}  // namespace uots

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // UOTS_TRACE_ACTIVE=1 turns span recording on for the whole run, which
  // makes BM_UotsQuery measure the tracing-enabled cost of the search.
  const char* trace_env = std::getenv("UOTS_TRACE_ACTIVE");
  const bool tracing = trace_env != nullptr && trace_env[0] != '0';
  if (tracing) uots::Trace::Start();
  uots::bench::JsonReport report("M1 substrate micro-benchmarks");
  uots::bench::JsonTeeReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (tracing) {
    uots::Trace::Stop();
    std::printf("tracing was active: %zu events captured, %lld dropped\n",
                uots::Trace::Snapshot().size(),
                static_cast<long long>(uots::Trace::dropped()));
  }
  report.WriteFile("BENCH_micro.json");
  return 0;
}
