// Experiment T2 — similar-pairs self join (the data-cleaning application).
//
// Generated trips are all distinct, so — like a real deduplication
// scenario — the dataset is salted with noisy duplicates (2% of the set,
// downsampled copies) and the join is swept over theta. Reported: join
// wall time, qualifying pairs, recall of the planted duplicates, and the
// per-trajectory search rate. Expected shape: planted pairs are recovered
// with high recall down to moderate theta; time is dominated by the
// per-trajectory threshold searches and grows as theta falls.

#include <cstdio>
#include <set>

#include "common/datasets.h"
#include "common/report.h"
#include "core/pairs.h"
#include "traj/simplify.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace uots {
namespace bench {
namespace {

void Run() {
  // The self join touches every trajectory; a smaller slice keeps each
  // theta point in seconds.
  auto base = LoadCity(City::kBRN, 4000);

  // Salt with noisy duplicates: copy 2% of the trajectories, downsampled
  // to 2/3 of their samples (a different GPS logger's view of the trip).
  TrajectoryStore store;
  for (TrajId id = 0; id < base->store().size(); ++id) {
    if (!store.Add(base->store().Materialize(id)).ok()) std::abort();
  }
  Rng rng(901);
  std::set<std::pair<TrajId, TrajId>> planted;
  const size_t originals = store.size();
  const int dup_count = static_cast<int>(originals / 50);
  for (int i = 0; i < dup_count; ++i) {
    const TrajId src = static_cast<TrajId>(rng.Uniform(originals));
    Trajectory copy = base->store().Materialize(src);
    copy = DownsampleUniform(copy,
                             std::max<size_t>(2, copy.samples.size() * 2 / 3));
    auto id = store.Add(copy);
    if (!id.ok()) std::abort();
    planted.emplace(src, *id);
  }
  // Rebuild the network for the salted database (the loaded one moved
  // into `base`; regenerating from cache is cheap).
  auto fresh = LoadCity(City::kBRN, 1);  // network only matters
  TrajectoryDatabase db(fresh->network(), std::move(store),
                        Vocabulary::Synthetic(1000));

  PrintBanner("T2 similar-pairs self join, BRN subset (salted)", db);
  std::printf("planted noisy duplicates: %d\n", dup_count);
  JsonReport report("T2 similar-pairs self join");
  Table table({"theta", "pairs", "recall", "join s", "searches/s"});
  table.PrintHeader();
  for (double theta : {0.95, 0.90, 0.85, 0.80}) {
    PairJoinOptions opts;
    opts.theta = theta;
    opts.threads = 4;
    LatencyHistogram lat;  // one sample per per-trajectory search
    WallTimer timer;
    auto pairs = FindSimilarPairs(db, opts, &lat);
    const double secs = timer.ElapsedSeconds();
    if (!pairs.ok()) {
      std::fprintf(stderr, "join failed: %s\n",
                   pairs.status().ToString().c_str());
      std::abort();
    }
    int recovered = 0;
    for (const auto& p : *pairs) {
      if (planted.count({p.a, p.b})) ++recovered;
    }
    table.PrintRow({FormatDouble(theta, 2), std::to_string(pairs->size()),
                    FormatDouble(static_cast<double>(recovered) / dup_count, 2),
                    FormatDouble(secs, 2),
                    FormatDouble(db.store().size() / secs, 0)});
    report.AddRow()
        .Set("theta", theta)
        .Set("pairs", static_cast<int64_t>(pairs->size()))
        .Set("recall", static_cast<double>(recovered) / dup_count)
        .Set("join_seconds", secs)
        .Set("searches_per_second", db.store().size() / secs)
        .Set("search_p50_ms", lat.PercentileMs(50.0))
        .Set("search_p95_ms", lat.PercentileMs(95.0))
        .Set("search_p99_ms", lat.PercentileMs(99.0))
        .Set("search_max_ms", static_cast<double>(lat.max_ns()) / 1e6);
  }
  table.PrintRule();
  report.WriteFile("BENCH_pairs.json");
}

}  // namespace
}  // namespace bench
}  // namespace uots

int main() {
  uots::bench::Run();
  return 0;
}
