#include "common/datasets.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "net/generators.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "traj/generator.h"
#include "traj/io.h"

namespace uots {
namespace bench {

namespace {

std::string CacheDir() {
  const char* env = std::getenv("UOTS_BENCH_CACHE_DIR");
  return env != nullptr ? env : "/tmp/uots_bench_cache";
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// A unique temp name next to `path` (the snapshot writer's idiom): two
/// processes filling the same cache never write into one file.
std::string TempPathFor(const std::string& path) {
  static std::atomic<uint64_t> seq{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1));
}

RoadNetwork BuildNetwork(City city) {
  if (city == City::kBRN) {
    RingRadialNetworkOptions opts;
    opts.rings = 52;
    opts.inner_ring_vertices = 12;
    opts.ring_spacing_m = 220.0;
    opts.radial_rate = 0.35;
    opts.seed = 1001;
    auto g = MakeRingRadialNetwork(opts);
    if (!g.ok()) {
      std::fprintf(stderr, "BRN generation failed: %s\n",
                   g.status().ToString().c_str());
      std::abort();
    }
    return std::move(*g);
  }
  GridNetworkOptions opts;
  opts.rows = 160;
  opts.cols = 160;
  opts.spacing_m = 150.0;
  opts.removal_rate = 0.12;
  opts.seed = 1002;
  auto g = MakeGridNetwork(opts);
  if (!g.ok()) {
    std::fprintf(stderr, "NRN generation failed: %s\n",
                 g.status().ToString().c_str());
    std::abort();
  }
  return std::move(*g);
}

TrajectoryStore BuildTrips(const RoadNetwork& g, City city) {
  TripGeneratorOptions opts;
  opts.num_trajectories =
      city == City::kBRN ? kMaxTrajectoriesBRN : kMaxTrajectoriesNRN;
  opts.num_hotspots = 10;
  opts.vocabulary_size = 1000;
  opts.sample_stride = 3;
  opts.seed = city == City::kBRN ? 2001 : 2002;
  auto data = GenerateTrips(g, opts);
  if (!data.ok()) {
    std::fprintf(stderr, "trip generation failed: %s\n",
                 data.status().ToString().c_str());
    std::abort();
  }
  return std::move(data->store);
}

/// Copies the first n trajectories of `full` (cardinality sweeps).
TrajectoryStore Slice(const TrajectoryStore& full, int n) {
  TrajectoryStore out;
  const TrajId limit = std::min<TrajId>(static_cast<TrajId>(n),
                                        static_cast<TrajId>(full.size()));
  for (TrajId id = 0; id < limit; ++id) {
    auto added = out.Add(full.Materialize(id));
    if (!added.ok()) std::abort();
  }
  return out;
}

}  // namespace

std::string EnsureCacheDir() {
  const std::string dir = CacheDir();
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string CachedTrajectoriesPath(City city) {
  return CacheDir() + "/" + CityName(city) + ".trajectories";
}

std::string CachedSnapshotPath(City city, int num_trajectories) {
  return CacheDir() + "/" + CityName(city) + "." +
         std::to_string(num_trajectories) + ".snap";
}

std::unique_ptr<TrajectoryDatabase> LoadCity(City city, int num_trajectories) {
  EnsureCacheDir();

  // Fast path: a previously persisted snapshot of this exact (city,
  // cardinality) pair loads zero-copy, skipping generation, parse and
  // index builds.
  const std::string snap_path = CachedSnapshotPath(city, num_trajectories);
  if (FileExists(snap_path)) {
    auto snap = storage::LoadSnapshot(snap_path);
    if (snap.ok()) return std::move(*snap);
    std::fprintf(stderr, "snapshot cache load failed (%s); rebuilding\n",
                 snap.status().ToString().c_str());
  }

  // The network is regenerated on every load (milliseconds): a text copy
  // would round its coordinates and yield another dataset. The trip set
  // takes seconds, so its text file (integers only: an exact round trip)
  // is cached. It appears whole or not at all (temp name + rename), so a
  // concurrent LoadCity parses the finished file or generates the
  // identical trips itself.
  RoadNetwork network = BuildNetwork(city);
  const std::string traj_path = CachedTrajectoriesPath(city);
  TrajectoryStore full = [&] {
    if (FileExists(traj_path)) {
      auto s = LoadTrajectories(traj_path);
      if (s.ok()) return std::move(*s);
      std::fprintf(stderr, "cache load failed (%s); regenerating\n",
                   s.status().ToString().c_str());
    }
    TrajectoryStore s = BuildTrips(network, city);
    const std::string tmp = TempPathFor(traj_path);
    if (!SaveTrajectories(s, tmp).ok() ||
        std::rename(tmp.c_str(), traj_path.c_str()) != 0) {
      std::remove(tmp.c_str());
      std::fprintf(stderr, "warning: cannot write cache %s\n",
                   traj_path.c_str());
    }
    return s;
  }();

  TrajectoryStore store =
      num_trajectories >= static_cast<int>(full.size())
          ? std::move(full)
          : Slice(full, num_trajectories);
  auto db = std::make_unique<TrajectoryDatabase>(
      std::move(network), std::move(store), Vocabulary::Synthetic(1000));
  const Status st = storage::WriteSnapshot(*db, snap_path);
  if (!st.ok()) {
    std::fprintf(stderr, "warning: cannot write snapshot cache %s: %s\n",
                 snap_path.c_str(), st.ToString().c_str());
  }
  return db;
}

std::unique_ptr<TrajectoryDatabase> LoadCity(City city) {
  return LoadCity(city, city == City::kBRN ? kDefaultTrajectoriesBRN
                                           : kDefaultTrajectoriesNRN);
}

}  // namespace bench
}  // namespace uots
