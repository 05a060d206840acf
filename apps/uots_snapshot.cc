// Snapshot tool: build, inspect, and verify binary dataset snapshots.
//
//   $ ./uots_snapshot build --out=brn.snap --city=BRN --trajectories=15000
//   $ ./uots_snapshot build --out=d.snap --network=g.network --trips=t.trajectories
//   $ ./uots_snapshot build --out=g.snap --gen-rows=60 --gen-cols=60 --gen-trips=5000
//   $ ./uots_snapshot build --out=brn.snap --city=BRN --oracle
//   $ ./uots_snapshot inspect brn.snap
//   $ ./uots_snapshot verify brn.snap
//
// `build` produces a checksummed format-v2 snapshot from any dataset
// source (`--oracle` additionally contracts the network and bakes the
// distance oracle into the file); `inspect` dumps the superblock, meta
// record, and section table of a structurally valid snapshot; `verify`
// additionally sweeps every payload checksum and id-range check (exit 0
// only on a fully intact file).

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>

#include "common/datasets.h"
#include "flags.h"
#include "net/generators.h"
#include "net/io.h"
#include "oracle/ch_oracle.h"
#include "storage/format.h"
#include "storage/resolver.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "traj/generator.h"
#include "traj/io.h"

namespace {

using uots::cli::ParseFlag;
using uots::cli::ParseNumber;
using uots::storage::SnapshotInfo;

struct BuildFlags {
  std::string out;
  std::string network;
  std::string trips;
  std::string city;
  int trajectories = 0;
  int gen_rows = 0;
  int gen_cols = 0;
  int gen_trips = 0;
  uint64_t seed = 1;
  bool oracle = false;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: uots_snapshot build --out=FILE [--oracle]\n"
      "           ( --network=FILE --trips=FILE\n"
      "           | --city=BRN|NRN [--trajectories=N]\n"
      "           | --gen-rows=R --gen-cols=C --gen-trips=N [--seed=S] )\n"
      "       uots_snapshot inspect FILE\n"
      "       uots_snapshot verify FILE\n");
}

int RunBuild(const BuildFlags& flags) {
  if (flags.out.empty()) {
    std::fprintf(stderr, "build: --out is required\n");
    return 2;
  }

  std::unique_ptr<uots::TrajectoryDatabase> db;
  if (!flags.network.empty() || !flags.trips.empty()) {
    if (flags.network.empty() || flags.trips.empty()) {
      std::fprintf(stderr, "build: --network and --trips go together\n");
      return 2;
    }
    auto loaded = uots::storage::LoadTextDataset(flags.network, flags.trips);
    if (!loaded.ok()) {
      std::fprintf(stderr, "build: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    db = std::move(loaded->db);
  } else if (!flags.city.empty()) {
    uots::bench::City city;
    if (flags.city == "BRN") {
      city = uots::bench::City::kBRN;
    } else if (flags.city == "NRN") {
      city = uots::bench::City::kNRN;
    } else {
      std::fprintf(stderr, "build: unknown city %s\n", flags.city.c_str());
      return 2;
    }
    db = flags.trajectories > 0
             ? uots::bench::LoadCity(city, flags.trajectories)
             : uots::bench::LoadCity(city);
  } else if (flags.gen_rows > 0 && flags.gen_cols > 0 && flags.gen_trips > 0) {
    uots::GridNetworkOptions net_opts;
    net_opts.rows = flags.gen_rows;
    net_opts.cols = flags.gen_cols;
    net_opts.seed = flags.seed;
    auto g = uots::MakeGridNetwork(net_opts);
    if (!g.ok()) {
      std::fprintf(stderr, "build: network generation: %s\n",
                   g.status().ToString().c_str());
      return 1;
    }
    uots::TripGeneratorOptions trip_opts;
    trip_opts.num_trajectories = flags.gen_trips;
    trip_opts.seed = flags.seed + 1;
    auto trips = uots::GenerateTrips(*g, trip_opts);
    if (!trips.ok()) {
      std::fprintf(stderr, "build: trip generation: %s\n",
                   trips.status().ToString().c_str());
      return 1;
    }
    db = std::make_unique<uots::TrajectoryDatabase>(
        std::move(*g), std::move(trips->store), std::move(trips->vocabulary));
  } else {
    std::fprintf(stderr, "build: pick one dataset source\n");
    Usage();
    return 2;
  }

  if (flags.oracle) {
    uots::OracleBuildStats ostats;
    auto oracle = uots::DistanceOracle::Build(db->network(), {}, &ostats);
    if (!oracle.ok()) {
      std::fprintf(stderr, "build: oracle construction: %s\n",
                   oracle.status().ToString().c_str());
      return 1;
    }
    std::printf("oracle: %zu vertices, %zu upward arcs (%" PRIu64
                " shortcuts), %" PRIu64 " witness searches, %" PRIu64
                " witness settles, built in %.2fs\n",
                oracle->NumVertices(), oracle->NumUpEdges(), ostats.shortcuts,
                ostats.witness_searches, ostats.witness_settled,
                ostats.seconds);
    db->AttachOracle(
        std::make_shared<uots::DistanceOracle>(std::move(*oracle)));
  }

  const uots::Status st = uots::storage::WriteSnapshot(*db, flags.out);
  if (!st.ok()) {
    std::fprintf(stderr, "build: %s\n", st.ToString().c_str());
    return 1;
  }
  auto info = uots::storage::InspectSnapshot(flags.out);
  if (!info.ok()) {
    std::fprintf(stderr, "build: wrote a snapshot that fails inspection: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %s: %" PRIu64 " bytes, %" PRIu64 " vertices, %" PRIu64
      " trajectories, fingerprint %08x\n",
      flags.out.c_str(), info->file_size, info->meta.num_vertices,
      info->meta.num_trajectories, info->superblock.dataset_fingerprint);
  return 0;
}

int RunInspect(const std::string& path) {
  auto info_r = uots::storage::InspectSnapshot(path);
  if (!info_r.ok()) {
    std::fprintf(stderr, "inspect: %s\n", info_r.status().ToString().c_str());
    return 1;
  }
  const SnapshotInfo& info = *info_r;
  char created[32] = "unknown";
  const time_t created_s = static_cast<time_t>(info.superblock.created_unix_s);
  struct tm tm_buf;
  if (gmtime_r(&created_s, &tm_buf) != nullptr) {
    std::strftime(created, sizeof(created), "%Y-%m-%dT%H:%M:%SZ", &tm_buf);
  }
  std::printf(
      "snapshot %s\n"
      "  format v%u, %" PRIu64 " bytes, built %s by %.28s\n"
      "  dataset fingerprint %08x\n"
      "  %" PRIu64 " vertices, %" PRIu64 " directed edges\n"
      "  %" PRIu64 " trajectories, %" PRIu64 " samples, %" PRIu64
      " keyword terms\n"
      "  vocabulary %" PRIu64 " terms; inverted index %" PRIu64 " terms / %"
      PRIu64 " postings\n"
      "  vertex index %" PRIu64 " postings; time index %" PRIu64 " entries\n",
      path.c_str(), info.superblock.format_version, info.file_size, created,
      info.superblock.tool, info.superblock.dataset_fingerprint,
      info.meta.num_vertices, info.meta.num_directed_edges,
      info.meta.num_trajectories, info.meta.num_samples,
      info.meta.num_keyword_terms, info.meta.num_vocab_terms,
      info.meta.num_index_terms, info.meta.num_index_postings,
      info.meta.num_vertex_postings, info.meta.num_time_entries);
  if (info.superblock.format_version < 2) {
    std::printf("  no oracle (format v1 predates distance oracles)\n");
  } else if (info.meta.num_oracle_vertices == 0) {
    std::printf("  no oracle (build with uots_snapshot build --oracle)\n");
  } else {
    std::printf("  distance oracle: %" PRIu64 " vertices, %" PRIu64
                " upward arcs\n",
                info.meta.num_oracle_vertices, info.meta.num_oracle_edges);
  }
  std::printf("  %-24s %12s %6s %14s %10s\n", "section", "count", "elem",
              "bytes", "crc32c");
  for (const auto& e : info.sections) {
    std::printf("  %-24s %12" PRIu64 " %6u %14" PRIu64 "   %08x\n",
                uots::storage::SectionName(
                    static_cast<uots::storage::SectionId>(e.id)),
                e.count, e.elem_size, e.size_bytes, e.crc32c);
  }
  return 0;
}

int RunVerify(const std::string& path) {
  const uots::Status st = uots::storage::VerifySnapshot(path);
  if (!st.ok()) {
    std::printf("%s: FAILED: %s\n", path.c_str(), st.ToString().c_str());
    return 1;
  }
  auto info = uots::storage::InspectSnapshot(path);
  std::printf("%s: OK (fingerprint %08x, %" PRIu64 " bytes)\n", path.c_str(),
              info.ok() ? info->superblock.dataset_fingerprint : 0,
              info.ok() ? info->file_size : 0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "build") {
    BuildFlags flags;
    for (int i = 2; i < argc; ++i) {
      std::string v;
      bool ok = true;  // false: the flag's value is malformed or out of range
      if (ParseFlag(argv[i], "--out", &v)) {
        flags.out = v;
      } else if (ParseFlag(argv[i], "--network", &v)) {
        flags.network = v;
      } else if (ParseFlag(argv[i], "--trips", &v)) {
        flags.trips = v;
      } else if (ParseFlag(argv[i], "--city", &v)) {
        flags.city = v;
      } else if (ParseFlag(argv[i], "--trajectories", &v)) {
        ok = ParseNumber(v, 0, INT_MAX, &flags.trajectories);
      } else if (ParseFlag(argv[i], "--gen-rows", &v)) {
        ok = ParseNumber(v, 0, INT_MAX, &flags.gen_rows);
      } else if (ParseFlag(argv[i], "--gen-cols", &v)) {
        ok = ParseNumber(v, 0, INT_MAX, &flags.gen_cols);
      } else if (ParseFlag(argv[i], "--gen-trips", &v)) {
        ok = ParseNumber(v, 0, INT_MAX, &flags.gen_trips);
      } else if (ParseFlag(argv[i], "--seed", &v)) {
        ok = ParseNumber(v, uint64_t{0}, UINT64_MAX, &flags.seed);
      } else if (std::strcmp(argv[i], "--oracle") == 0) {
        flags.oracle = true;
      } else {
        ok = false;
      }
      if (!ok) {
        std::fprintf(stderr, "bad flag %s\n", argv[i]);
        Usage();
        return 2;
      }
    }
    return RunBuild(flags);
  }
  if ((cmd == "inspect" || cmd == "verify") && argc == 3) {
    return cmd == "inspect" ? RunInspect(argv[2]) : RunVerify(argv[2]);
  }
  Usage();
  return 2;
}
