// Trace a query end to end and dump a Chrome/Perfetto trace.
//
//   $ ./trace_query [trace.json]
//
// Builds a small city, turns the span tracer on, runs one query per
// engine, and writes every recorded span to a trace_event JSON file.
// Open the file in chrome://tracing or https://ui.perfetto.dev to see the
// nested phase spans (textual filter, expansion rounds, bound
// maintenance, scheduling, refinement) per engine. Also prints the
// per-phase wall-time breakdown from QueryStats.

#include <cstdio>

#include "core/algorithm.h"
#include "net/generators.h"
#include "traj/generator.h"
#include "util/trace.h"

int main(int argc, char** argv) {
  using namespace uots;
  const char* out_path = argc > 1 ? argv[1] : "trace.json";

  GridNetworkOptions net_opts;
  net_opts.rows = 30;
  net_opts.cols = 30;
  auto network = MakeGridNetwork(net_opts);
  if (!network.ok()) {
    std::fprintf(stderr, "network: %s\n", network.status().ToString().c_str());
    return 1;
  }
  TripGeneratorOptions trip_opts;
  trip_opts.num_trajectories = 2000;
  trip_opts.vocabulary_size = 200;
  auto trips = GenerateTrips(*network, trip_opts);
  if (!trips.ok()) {
    std::fprintf(stderr, "trips: %s\n", trips.status().ToString().c_str());
    return 1;
  }
  TrajectoryDatabase db(std::move(*network), std::move(trips->store),
                        std::move(trips->vocabulary));

  UotsQuery query;
  query.locations = {45, 420, 860};
  query.keywords = KeywordSet({db.vocabulary().Lookup("food_0"),
                               db.vocabulary().Lookup("museum_0")});
  query.lambda = 0.5;
  query.k = 5;

  Trace::Clear();
  Trace::Start();
  for (AlgorithmKind kind :
       {AlgorithmKind::kUots, AlgorithmKind::kTextFirst,
        AlgorithmKind::kBruteForce, AlgorithmKind::kEuclidean}) {
    auto engine = CreateAlgorithm(db, kind);
    auto result = engine->Search(query);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", ToString(kind),
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-14s %s\n", ToString(kind),
                result->stats.ToString().c_str());
  }
  Trace::Stop();

  const size_t events = Trace::Snapshot().size();
  if (!Trace::WriteChromeJson(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("\nwrote %s (%zu spans) — open in chrome://tracing or "
              "https://ui.perfetto.dev\n",
              out_path, events);
#if !UOTS_TRACE
  std::printf("note: built with -DUOTS_TRACE=OFF, spans compile to nothing\n");
#endif
  return 0;
}
