// Shared benchmark datasets: a Beijing-like ring-radial network ("BRN") and
// a New-York-like perturbed grid ("NRN"), each with a taxi-trip set.
//
// Scale note: the paper's networks have 28k/96k vertices and its trajectory
// sets reach 10M (on a 10-node cluster). This harness is laptop-scale —
// ~19k/25k vertices and tens of thousands of trips — which preserves every
// trend the experiments measure (who wins, how cost scales) while keeping
// each bench binary under a couple of minutes. EXPERIMENTS.md discusses the
// scaling.
//
// Datasets are generated deterministically. The network is regenerated on
// every load (milliseconds); the trip set, which takes seconds, is cached
// as a text file (<CITY>.trajectories, integers only, so it round-trips
// exactly) under $UOTS_BENCH_CACHE_DIR (default /tmp/uots_bench_cache), so
// the suite of bench binaries pays trip generation once. On top sits a
// per-cardinality binary snapshot cache (<CITY>.<n>.snap, src/storage/):
// after the first build of a given (city, cardinality) the database is
// persisted and later LoadCity calls mmap it back in without generation,
// parsing or index building. A (city, n) pair yields the same dataset
// whatever the cache already holds.

#ifndef UOTS_BENCH_COMMON_DATASETS_H_
#define UOTS_BENCH_COMMON_DATASETS_H_

#include <memory>
#include <string>

#include "core/database.h"

namespace uots {
namespace bench {

/// Which benchmark city to load.
enum class City { kBRN, kRingRadial = kBRN, kNRN, kGrid = kNRN };

inline const char* CityName(City c) { return c == City::kBRN ? "BRN" : "NRN"; }

/// Default trajectory cardinalities (the paper's "default" setting, scaled).
inline constexpr int kDefaultTrajectoriesBRN = 15000;
inline constexpr int kDefaultTrajectoriesNRN = 30000;

/// Largest cardinality any bench sweeps to; the cache stores this many.
inline constexpr int kMaxTrajectoriesBRN = 20000;
inline constexpr int kMaxTrajectoriesNRN = 40000;

/// \brief Loads (or generates+caches) a city network plus `num_trajectories`
/// trips, fully indexed. `num_trajectories <= kMaxTrajectories*`.
std::unique_ptr<TrajectoryDatabase> LoadCity(City city, int num_trajectories);

/// Convenience: default-size database for the city.
std::unique_ptr<TrajectoryDatabase> LoadCity(City city);

/// The benchmark cache directory ($UOTS_BENCH_CACHE_DIR or the default),
/// created if missing.
std::string EnsureCacheDir();

/// Trip-set text cache for a city (may not exist yet; LoadCity fills it).
std::string CachedTrajectoriesPath(City city);

/// Snapshot-cache path for one (city, cardinality) pair.
std::string CachedSnapshotPath(City city, int num_trajectories);

}  // namespace bench
}  // namespace uots

#endif  // UOTS_BENCH_COMMON_DATASETS_H_
