// Distance-oracle correctness: contraction-hierarchy answers must be
// EXACTLY (bitwise) equal to plain Dijkstra on every pair — the property
// the search layer relies on for oracle-on/oracle-off bit-identity — and
// the oracle-driven search itself must return bit-identical results to the
// expansion baseline and match brute force.

#include "oracle/ch_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "core/search.h"
#include "core/workload.h"
#include "net/dijkstra.h"
#include "net/generators.h"
#include "oracle/querier.h"
#include "storage/crc32c.h"
#include "test_networks.h"
#include "traj/generator.h"
#include "util/rng.h"

namespace uots {
namespace {

DistanceOracle BuildOracle(const RoadNetwork& g,
                           OracleBuildStats* stats = nullptr,
                           const OracleBuildOptions& opts = {}) {
  auto oracle = DistanceOracle::Build(g, opts, stats);
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_TRUE(oracle->Validate().ok());
  return std::move(*oracle);
}

/// Exact (EXPECT_EQ on doubles, infinity included) all-pairs comparison
/// against full Dijkstra trees. Only feasible on small networks.
void ExpectAllPairsExact(const RoadNetwork& g) {
  const DistanceOracle oracle = BuildOracle(g);
  OracleQuerier querier(oracle);
  const size_t n = g.NumVertices();
  for (VertexId s = 0; s < static_cast<VertexId>(n); ++s) {
    const ShortestPathTree tree = ComputeShortestPathTree(g, s);
    for (VertexId t = 0; t < static_cast<VertexId>(n); ++t) {
      EXPECT_EQ(querier.Distance(s, t), tree.dist[t])
          << "sd(" << s << ", " << t << ")";
    }
  }
}

RoadNetwork LargerGrid() {
  auto g = MakeGridNetwork(LargerGridOptions());
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

TEST(ChOracle, AllPairsExactOnGrid) {
  GridNetworkOptions opts;
  opts.rows = 9;
  opts.cols = 9;
  opts.removal_rate = 0.1;
  opts.seed = 7;
  auto g = MakeGridNetwork(opts);
  ASSERT_TRUE(g.ok());
  ExpectAllPairsExact(*g);
}

TEST(ChOracle, AllPairsExactOnRingRadial) {
  RingRadialNetworkOptions opts;
  opts.rings = 6;
  opts.inner_ring_vertices = 6;
  opts.seed = 9;
  auto g = MakeRingRadialNetwork(opts);
  ASSERT_TRUE(g.ok());
  ExpectAllPairsExact(*g);
}

TEST(ChOracle, AllPairsExactOnRandomGeometric) {
  RandomGeometricOptions opts;
  opts.num_vertices = 80;
  opts.k_nearest = 4;
  opts.seed = 21;
  auto g = MakeRandomGeometricNetwork(opts);
  ASSERT_TRUE(g.ok());
  ExpectAllPairsExact(*g);
}

TEST(ChOracle, SampledPairsExactOnLargerNetworks) {
  // BRN-style (ring-radial) and NRN-style (grid) networks at a size where
  // all-pairs is too slow: sample pairs, still demand exact equality.
  std::vector<RoadNetwork> nets;
  {
    GridNetworkOptions gopts;
    gopts.rows = 40;
    gopts.cols = 40;
    gopts.removal_rate = 0.05;
    gopts.seed = 3;
    auto g = MakeGridNetwork(gopts);
    ASSERT_TRUE(g.ok());
    nets.push_back(std::move(*g));
  }
  {
    RingRadialNetworkOptions ropts;
    ropts.rings = 18;
    ropts.inner_ring_vertices = 10;
    ropts.seed = 4;
    auto g = MakeRingRadialNetwork(ropts);
    ASSERT_TRUE(g.ok());
    nets.push_back(std::move(*g));
  }
  Rng rng(0xfeedu);
  for (const RoadNetwork& g : nets) {
    const DistanceOracle oracle = BuildOracle(g);
    OracleQuerier querier(oracle);
    const size_t n = g.NumVertices();
    for (int i = 0; i < 40; ++i) {
      const auto s = static_cast<VertexId>(rng.Next() % n);
      const ShortestPathTree tree = ComputeShortestPathTree(g, s);
      for (int j = 0; j < 25; ++j) {
        const auto t = static_cast<VertexId>(rng.Next() % n);
        EXPECT_EQ(querier.Distance(s, t), tree.dist[t])
            << "sd(" << s << ", " << t << ")";
      }
    }
  }
}

/// 600 rim vertices joined to one hub (weight 1) plus four spokes, each
/// joined to 400 rim vertices (weight 10). The hub witnesses every pair of
/// a spoke's neighbours, so the spokes are contracted first with all their
/// rim arcs upward; most rim vertices land among the top 512 ranks, and a
/// spoke's sweep reaches ~340 core entries.
RoadNetwork HubNetwork() {
  constexpr int kRim = 600;
  constexpr int kSpokes = 4;
  GraphBuilder b;
  for (int i = 0; i < kRim + 1 + kSpokes; ++i) {
    b.AddVertex(Point{static_cast<double>(i), 0.0});
  }
  const auto hub = static_cast<VertexId>(kRim);
  Rng rng(0x40bu);
  for (VertexId r = 0; r < hub; ++r) b.AddEdge(r, hub, 1.0);
  for (int k = 0; k < kSpokes; ++k) {
    const auto spoke = static_cast<VertexId>(kRim + 1 + k);
    std::vector<VertexId> rim(kRim);
    for (int i = 0; i < kRim; ++i) rim[i] = static_cast<VertexId>(i);
    for (int i = 0; i < 400; ++i) {  // 400 distinct rim vertices
      std::swap(rim[i], rim[i + rng.Next() % (kRim - i)]);
      b.AddEdge(spoke, rim[i], 10.0);
    }
  }
  auto g = std::move(b).Finalize();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

TEST(ChOracle, DenseEntrySetsStayExact) {
  // Two spokes' entry sets hold ~340 nodes each, so Distance() joins
  // ~115,000 entry pairs through the core table. Every answer must still
  // be exact.
  const RoadNetwork g = HubNetwork();
  const DistanceOracle oracle = BuildOracle(g);
  OracleQuerier querier(oracle);
  const size_t n = g.NumVertices();
  constexpr VertexId kHub = 600;  // rim vertices below it, spokes above
  std::vector<VertexId> probes = {0, 17, 599, kHub};
  for (VertexId s = kHub + 1; s < n; ++s) probes.push_back(s);
  for (const VertexId s : probes) {
    const ShortestPathTree tree = ComputeShortestPathTree(g, s);
    for (const VertexId t : probes) {
      EXPECT_EQ(querier.Distance(s, t), tree.dist[t])
          << "sd(" << s << ", " << t << ")";
    }
  }
}

/// BeginQuery over `sources`, then DistancesTo rows and set minima against
/// Dijkstra and pairwise Distance, bitwise. Returns the entries BeginQuery
/// left out of its core rows as dominated.
int64_t ExpectFoldedRowsExact(const RoadNetwork& g,
                              const DistanceOracle& oracle,
                              const std::vector<VertexId>& sources,
                              const std::vector<VertexId>& targets) {
  OracleQuerier querier(oracle);
  OracleQuerier pairwise(oracle);
  std::vector<ShortestPathTree> trees;
  for (const VertexId s : sources) {
    trees.push_back(ComputeShortestPathTree(g, s));
  }
  querier.BeginQuery(sources);
  for (const VertexId v : targets) {
    const auto row = querier.DistancesTo(v);
    for (size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(row[i]),
                std::bit_cast<uint64_t>(trees[i].dist[v]))
          << "source " << sources[i] << " to " << v;
      EXPECT_EQ(row[i], pairwise.Distance(sources[i], v));
    }
  }
  for (size_t j = 0; j + 3 <= targets.size(); j += 3) {
    const std::vector<VertexId> set(targets.begin() + j,
                                    targets.begin() + j + 3);
    const auto row = querier.MinDistancesTo(set);
    for (size_t i = 0; i < sources.size(); ++i) {
      double want = kInfDistance;
      for (const VertexId v : set) want = std::min(want, trees[i].dist[v]);
      EXPECT_EQ(std::bit_cast<uint64_t>(row[i]), std::bit_cast<uint64_t>(want))
          << "source " << sources[i] << " set " << j;
    }
  }
  return querier.DominatedEntries();
}

TEST(ChOracle, DominatedEntriesFoldToTheSameRows) {
  // BeginQuery leaves out of a source's core row every entry another entry
  // reaches through the table no later than its own label. The rows must
  // stay the exact distances the full fold gave: Dijkstra's, bit for bit.
  // Sources mix vertices below the core (several entries, some dominated)
  // with core vertices (one entry each).
  {
    const RoadNetwork g = LargerGrid();
    const DistanceOracle oracle = BuildOracle(g);
    const std::vector<VertexId> core = CoreVertices(oracle);
    Rng rng(0xd0e5u);
    const auto n = static_cast<uint64_t>(g.NumVertices());
    std::vector<VertexId> sources;
    std::vector<VertexId> targets;
    for (int i = 0; i < 8; ++i) {
      sources.push_back(i % 2 == 0 ? static_cast<VertexId>(rng.Next() % n)
                                   : core[rng.Next() % core.size()]);
    }
    for (int j = 0; j < 30; ++j) {
      targets.push_back(j % 3 == 0 ? core[rng.Next() % core.size()]
                                   : static_cast<VertexId>(rng.Next() % n));
    }
    EXPECT_GT(ExpectFoldedRowsExact(g, oracle, sources, targets), 0);
  }
  {
    // Each spoke's sweep reaches ~340 core entries.
    const RoadNetwork g = HubNetwork();
    const DistanceOracle oracle = BuildOracle(g);
    const std::vector<VertexId> core = CoreVertices(oracle);
    constexpr VertexId kHub = 600;
    const std::vector<VertexId> sources = {
        kHub + 1, kHub + 2, kHub + 3, kHub + 4,
        kHub,     core[0],  core[core.size() / 2], 17};
    const std::vector<VertexId> targets = {
        0, 17, 599, 250, kHub, kHub + 1, kHub + 4, core[3], core[100]};
    EXPECT_GT(ExpectFoldedRowsExact(g, oracle, sources, targets), 0);
  }
}

TEST(ChOracle, DisconnectedPairsAreInfinite) {
  // Two components: a path 0-1-2 and a path 3-4. Within-component
  // distances stay exact; cross-component pairs must come back infinite.
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) {
    b.AddVertex(Point{static_cast<float>(100 * i), 0});
  }
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  auto g = std::move(b).Finalize(/*require_connected=*/false);
  ASSERT_TRUE(g.ok());

  const DistanceOracle oracle = BuildOracle(*g);
  OracleQuerier querier(oracle);
  EXPECT_EQ(querier.Distance(0, 2), ShortestPathDistance(*g, 0, 2));
  EXPECT_EQ(querier.Distance(3, 4), ShortestPathDistance(*g, 3, 4));
  EXPECT_EQ(querier.Distance(0, 3), kInfDistance);
  EXPECT_EQ(querier.Distance(4, 2), kInfDistance);
  EXPECT_EQ(querier.Distance(2, 2), 0.0);

  const std::vector<VertexId> sources = {0, 4};
  querier.BeginQuery(sources);
  const auto row = querier.DistancesTo(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], ShortestPathDistance(*g, 0, 1));
  EXPECT_EQ(row[1], kInfDistance);
}

/// One-to-many rows against pairwise lookups; half the sources and
/// targets are core vertices.
void ExpectBucketRowsMatchPairwise(const RoadNetwork& g) {
  const DistanceOracle oracle = BuildOracle(g);
  OracleQuerier bucket(oracle);
  OracleQuerier pairwise(oracle);
  const std::vector<VertexId> core = CoreVertices(oracle);

  Rng rng(0x5eedu);
  const size_t n = g.NumVertices();
  const auto pick = [&](int i) {
    return i % 2 == 0 ? static_cast<VertexId>(rng.Next() % n)
                      : core[rng.Next() % core.size()];
  };
  for (int round = 0; round < 6; ++round) {
    std::vector<VertexId> sources;
    for (int i = 0; i < 4; ++i) sources.push_back(pick(i));
    bucket.BeginQuery(sources);
    for (int j = 0; j < 30; ++j) {
      const VertexId v = pick(j);
      const auto row = bucket.DistancesTo(v);
      ASSERT_EQ(row.size(), sources.size());
      for (size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(row[i], pairwise.Distance(sources[i], v))
            << "source " << sources[i] << " target " << v;
      }
    }
  }
}

TEST(ChOracle, BucketOneToManyMatchesPairwise) {
  GridNetworkOptions opts;
  opts.rows = 14;
  opts.cols = 14;
  opts.seed = 31;
  auto g = MakeGridNetwork(opts);
  ASSERT_TRUE(g.ok());
  ExpectBucketRowsMatchPairwise(*g);
  ExpectBucketRowsMatchPairwise(LargerGrid());
}

/// `grid` plus a detached three-vertex path (ids n..n+2), so set and
/// source vertices can sit in different components.
RoadNetwork WithDetachedPath(const RoadNetwork& grid) {
  GraphBuilder b;
  const size_t n = grid.NumVertices();
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    b.AddVertex(grid.PositionOf(v));
  }
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    for (const AdjacencyEntry& e : grid.Neighbors(v)) {
      if (v < e.to) b.AddEdge(v, e.to, e.weight);
    }
  }
  const auto far = static_cast<VertexId>(n);
  for (int i = 0; i < 3; ++i) b.AddVertex(Point{1e6 + 100.0 * i, 1e6});
  b.AddEdge(far, far + 1);
  b.AddEdge(far + 1, far + 2);
  auto g = std::move(b).Finalize(/*require_connected=*/false);
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

/// The 12x12 grid of `seed` with a detached path.
RoadNetwork GridWithDetachedPath(uint64_t seed) {
  GridNetworkOptions opts;
  opts.rows = 12;
  opts.cols = 12;
  opts.removal_rate = 0.1;
  opts.seed = seed;
  auto grid = MakeGridNetwork(opts);
  EXPECT_TRUE(grid.ok());
  return WithDetachedPath(*grid);
}

/// Set minima, rows and an interleaved pairwise call against Dijkstra on
/// `g`, whose last three vertices are a detached path. Half the sources
/// and a core vertex in every set come from the top kCoreSize ranks.
void ExpectSetMinimaMatchDijkstra(const RoadNetwork& g) {
  const size_t n = g.NumVertices();
  const auto far = static_cast<VertexId>(n - 3);  // the detached path
  const DistanceOracle oracle = BuildOracle(g);
  OracleQuerier querier(oracle);
  const std::vector<VertexId> core = CoreVertices(oracle);

  Rng rng(0xc0ffeeu);
  const auto random_vertex = [&] {
    return static_cast<VertexId>(rng.Next() % far);
  };
  const auto core_vertex = [&] { return core[rng.Next() % core.size()]; };
  for (int round = 0; round < 5; ++round) {
    std::vector<VertexId> sources;
    for (int i = 0; i < 4; ++i) {
      sources.push_back(i % 2 == 0 ? random_vertex() : core_vertex());
    }
    if (round == 4) sources.push_back(far + 1);
    std::vector<ShortestPathTree> trees;
    for (const VertexId s : sources) {
      trees.push_back(ComputeShortestPathTree(g, s));
    }
    const auto expect_set_minimum = [&](const std::vector<VertexId>& set) {
      const std::vector<double> row = [&] {
        const auto r = querier.MinDistancesTo(set);
        return std::vector<double>(r.begin(), r.end());
      }();
      ASSERT_EQ(row.size(), sources.size());
      for (size_t i = 0; i < sources.size(); ++i) {
        double want = kInfDistance;
        for (const VertexId v : set) want = std::min(want, trees[i].dist[v]);
        EXPECT_EQ(row[i], want) << "round " << round << " source " << i
                                << " set size " << set.size();
      }
    };
    const auto expect_row = [&](VertexId v) {
      const auto row = querier.DistancesTo(v);
      ASSERT_EQ(row.size(), sources.size());
      for (size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(row[i], trees[i].dist[v]) << "source " << i << " to " << v;
      }
    };

    querier.BeginQuery(sources);
    for (int j = 0; j < 6; ++j) {
      std::vector<VertexId> set;
      const int size = 2 + static_cast<int>(rng.Next() % 7);
      for (int k = 0; k < size; ++k) set.push_back(random_vertex());
      set.push_back(core_vertex());
      set.push_back(set[rng.Next() % set.size()]);  // a duplicate vertex
      expect_set_minimum(set);
    }
    expect_set_minimum({random_vertex(), sources[0], random_vertex()});
    expect_set_minimum({random_vertex()});
    expect_set_minimum({core_vertex()});
    expect_set_minimum({});
    expect_set_minimum({far + 2, random_vertex()});
    expect_set_minimum({far, far + 2});

    // The trip assembler interleaves pairwise calls with one-to-many rows:
    // a Distance() between BeginQuery and DistancesTo leaves rows intact.
    const VertexId v = random_vertex();
    expect_row(v);
    const VertexId a = random_vertex();
    const VertexId b = random_vertex();
    EXPECT_EQ(querier.Distance(a, b), ComputeShortestPathTree(g, a).dist[b]);
    expect_row(v);                 // memoized row
    expect_row(random_vertex());   // fresh row after the pairwise call
    expect_row(core_vertex());
    expect_set_minimum({v, a, b});
  }
}

TEST(ChOracle, MinDistancesToMatchesDijkstraSetMinimum) {
  ExpectSetMinimaMatchDijkstra(GridWithDetachedPath(13));
  ExpectSetMinimaMatchDijkstra(WithDetachedPath(LargerGrid()));
}

/// CRC32C of one hierarchy column's raw bytes.
template <typename T>
uint32_t ColumnCrc(std::span<const T> column) {
  return storage::Crc32c(column.data(), column.size_bytes());
}

/// The seeded grid and ring networks the hierarchy goldens are pinned on.
RoadNetwork PinnedGrid() {
  GridNetworkOptions opts;
  opts.rows = 30;
  opts.cols = 30;
  opts.removal_rate = 0.05;
  opts.seed = 3;
  auto g = MakeGridNetwork(opts);
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

RoadNetwork PinnedRing() {
  RingRadialNetworkOptions opts;
  opts.rings = 18;
  opts.inner_ring_vertices = 10;
  opts.seed = 4;
  auto g = MakeRingRadialNetwork(opts);
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

TEST(ChOracle, BuildIsByteStable) {
  // Golden checksums of the three hierarchy columns for seeded networks:
  // any change to the contraction order or to a witness search's outcome
  // moves at least one of them. Faster builds must keep them. The capped
  // grid ends most searches at the settle cap, the random geometric graph
  // is irregular, and the split graph has an unreachable second component.
  struct Golden {
    size_t up_edges;
    uint32_t ranks_crc;
    uint32_t offsets_crc;
    uint32_t edges_crc;
  };
  const RoadNetwork grid = PinnedGrid();
  const RoadNetwork ring = PinnedRing();
  RandomGeometricOptions geo_opts;
  geo_opts.num_vertices = 700;
  geo_opts.k_nearest = 4;
  geo_opts.seed = 23;
  auto geometric = MakeRandomGeometricNetwork(geo_opts);
  ASSERT_TRUE(geometric.ok());
  const RoadNetwork split = GridWithDetachedPath(29);
  OracleBuildOptions capped;
  capped.witness_settle_limit = 3;

  struct Case {
    const char* name;
    const RoadNetwork* g;
    OracleBuildOptions opts;
    Golden golden;
  };
  const Case cases[] = {
      {"grid", &grid, {}, Golden{4456, 0xd54dc1edu, 0x101536f6u, 0xb6e51978u}},
      {"ring", &ring, {}, Golden{5849, 0x3cabbf6cu, 0x5170ad6fu, 0x30b9cd7du}},
      {"capped grid", &grid, capped,
       Golden{7874, 0xfc800ff1u, 0xc4520dcau, 0x4009d9b2u}},
      {"geometric", &*geometric, {},
       Golden{2858, 0x4e953f9au, 0x12764e83u, 0x7824bb92u}},
      {"split", &split, {}, Golden{512, 0x4cf97b5eu, 0xcd443db8u, 0x499d1561u}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const DistanceOracle oracle = BuildOracle(*c.g, nullptr, c.opts);
    EXPECT_EQ(oracle.NumUpEdges(), c.golden.up_edges);
    EXPECT_EQ(ColumnCrc(oracle.ranks()), c.golden.ranks_crc);
    EXPECT_EQ(ColumnCrc(oracle.up_offsets()), c.golden.offsets_crc);
    EXPECT_EQ(ColumnCrc(oracle.up_edges()), c.golden.edges_crc);
  }
}

TEST(ChOracle, WitnessSearchesStopOnceEveryTargetIsDecided) {
  // A witness search ends once every target's shortcut decision is fixed,
  // not at its radius bound. It runs the same searches (BuildIsByteStable
  // pins their outcomes) but settles fewer vertices than the 331,831 and
  // 316,574 a radius-bounded search settles on these networks.
  struct Case {
    const char* name;
    RoadNetwork g;
    uint64_t searches;
    uint64_t radius_bounded_settled;
  };
  const Case cases[] = {
      {"grid", PinnedGrid(), 13179, 331831},
      {"ring", PinnedRing(), 15981, 316574},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    OracleBuildStats stats;
    BuildOracle(c.g, &stats);
    EXPECT_EQ(stats.witness_searches, c.searches);
    EXPECT_LT(stats.witness_settled, c.radius_bounded_settled);
  }
}

TEST(ChOracle, BuildStatsAreReported) {
  GridNetworkOptions opts;
  opts.rows = 12;
  opts.cols = 12;
  opts.seed = 5;
  auto g = MakeGridNetwork(opts);
  ASSERT_TRUE(g.ok());
  OracleBuildStats stats;
  const DistanceOracle oracle = BuildOracle(*g, &stats);
  EXPECT_EQ(oracle.NumVertices(), g->NumVertices());
  EXPECT_GE(oracle.NumUpEdges(), g->NumEdges());  // every road arc kept once
  EXPECT_EQ(oracle.NumShortcuts(), oracle.NumUpEdges() - g->NumEdges());
  EXPECT_EQ(stats.shortcuts, oracle.NumShortcuts());
  EXPECT_GT(stats.witness_searches, 0u);
  EXPECT_GT(oracle.Memory().total(), 0u);
}

TEST(ChOracle, FromColumnsRoundTripsAndValidates) {
  GridNetworkOptions opts;
  opts.rows = 8;
  opts.cols = 8;
  opts.seed = 17;
  auto g = MakeGridNetwork(opts);
  ASSERT_TRUE(g.ok());
  const DistanceOracle built = BuildOracle(*g);
  const DistanceOracle viewed = DistanceOracle::FromColumns(
      ColumnVec<uint32_t>::View(built.ranks().data(), built.ranks().size()),
      ColumnVec<uint64_t>::View(built.up_offsets().data(),
                                built.up_offsets().size()),
      ColumnVec<OracleEdge>::View(built.up_edges().data(),
                                  built.up_edges().size()));
  EXPECT_TRUE(viewed.Validate().ok());
  OracleQuerier a(built);
  OracleQuerier b(viewed);
  for (VertexId v = 0; v < 20; ++v) {
    EXPECT_EQ(a.Distance(0, v), b.Distance(0, v));
  }

  // Corruption must be caught: a rank collision breaks the permutation.
  std::vector<uint32_t> bad_ranks(built.ranks().begin(), built.ranks().end());
  bad_ranks[1] = bad_ranks[0];
  const DistanceOracle corrupt = DistanceOracle::FromColumns(
      ColumnVec<uint32_t>::View(bad_ranks.data(), bad_ranks.size()),
      ColumnVec<uint64_t>::View(built.up_offsets().data(),
                                built.up_offsets().size()),
      ColumnVec<OracleEdge>::View(built.up_edges().data(),
                                  built.up_edges().size()));
  EXPECT_FALSE(corrupt.Validate().ok());
}

/// Checks every core table entry against a Dijkstra tree, bitwise; returns
/// how many entries are infinite (pairs in different components).
size_t ExpectCoreTableExact(const RoadNetwork& g) {
  const DistanceOracle oracle = BuildOracle(g);
  const OracleCore& core = oracle.core();
  const size_t n = g.NumVertices();
  EXPECT_EQ(core.size, std::min<size_t>(n, DistanceOracle::kCoreSize));
  EXPECT_EQ(core.first, n - core.size);
  EXPECT_EQ(core.dist.size(), size_t{core.size} * core.size);
  std::vector<VertexId> vertex_of(core.size);
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    if (oracle.RankOf(v) >= core.first) {
      vertex_of[oracle.RankOf(v) - core.first] = v;
    }
  }
  size_t mismatches = 0;
  size_t infinite = 0;
  for (uint32_t a = 0; a < core.size; ++a) {
    const ShortestPathTree tree = ComputeShortestPathTree(g, vertex_of[a]);
    const double* row = core.Row(a);
    for (uint32_t b = 0; b < core.size; ++b) {
      const double want = tree.dist[vertex_of[b]];
      if (std::bit_cast<uint64_t>(row[b]) != std::bit_cast<uint64_t>(want)) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << "D[" << a << "][" << b << "] = " << row[b]
                        << ", Dijkstra " << want;
        }
      }
      if (want == kInfDistance) ++infinite;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  return infinite;
}

TEST(ChOracle, CoreTableIsExact) {
  // 1,600 vertices: the table covers the top 512 ranks only.
  EXPECT_EQ(ExpectCoreTableExact(LargerGrid()), 0u);
  // 147 vertices in two components: the whole hierarchy is the core, and
  // cross-component entries must be infinite.
  EXPECT_GT(ExpectCoreTableExact(GridWithDetachedPath(13)), 0u);
}

TEST(ChOracle, QueriersShareOneCoreTable) {
  // Four queriers built concurrently on one fresh oracle race to build its
  // core table: exactly one table results, and every answer matches a
  // single-thread reference on a separately built oracle.
  const RoadNetwork g = LargerGrid();
  const DistanceOracle oracle = BuildOracle(g);
  const DistanceOracle reference_oracle = BuildOracle(g);
  const auto n = static_cast<VertexId>(g.NumVertices());
  constexpr int kThreads = 4;
  constexpr int kPairs = 1000;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  Rng rng(0x7ab1eu);
  for (int i = 0; i < kPairs; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.Next() % n),
                       static_cast<VertexId>(rng.Next() % n));
  }
  std::vector<double> reference;
  {
    OracleQuerier querier(reference_oracle);
    for (const auto& [s, t] : pairs) {
      reference.push_back(querier.Distance(s, t));
    }
  }

  std::vector<std::vector<double>> answers(kThreads);
  std::vector<const OracleCore*> tables(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      OracleQuerier querier(oracle);
      tables[t] = &oracle.core();
      for (const auto& [s, u] : pairs) {
        answers[t].push_back(querier.Distance(s, u));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tables[t], &oracle.core()) << "thread " << t;
    EXPECT_EQ(answers[t], reference) << "thread " << t;
  }
}

// ---- Search-layer integration: oracle on/off bit-identity. ----

RoadNetwork SearchGrid() {
  GridNetworkOptions gopts;
  gopts.rows = 20;
  gopts.cols = 20;
  gopts.seed = 41;
  auto g = MakeGridNetwork(gopts);
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

std::unique_ptr<TrajectoryDatabase> MakeDatabase(
    bool attach_oracle, RoadNetwork g = SearchGrid(),
    int num_trajectories = 350) {
  TripGeneratorOptions topts;
  topts.num_trajectories = num_trajectories;
  topts.vocabulary_size = 120;
  topts.seed = 42;
  auto data = GenerateTrips(g, topts);
  auto db = std::make_unique<TrajectoryDatabase>(
      std::move(g), std::move(data->store), std::move(data->vocabulary));
  if (attach_oracle) {
    auto oracle = DistanceOracle::Build(db->network());
    EXPECT_TRUE(oracle.ok());
    db->AttachOracle(std::make_shared<DistanceOracle>(std::move(*oracle)));
  }
  return db;
}

/// Moves the first location of every other query onto a core vertex.
void PutLocationsInTheCore(const DistanceOracle& oracle,
                           std::vector<UotsQuery>* queries) {
  const std::vector<VertexId> core = CoreVertices(oracle);
  for (size_t i = 1; i < queries->size(); i += 2) {
    (*queries)[i].locations[0] = core[(i * 37) % core.size()];
  }
}

void ExpectSearchBitIdentical(const TrajectoryDatabase& db) {
  UotsSearchOptions with;
  with.use_oracle = true;
  UotsSearchOptions without;
  without.use_oracle = false;

  WorkloadOptions wopts;
  wopts.num_queries = 10;
  wopts.num_locations = 3;
  wopts.lambda = 0.6;
  wopts.k = 10;
  wopts.seed = 77;
  auto queries = MakeWorkload(db, wopts);
  ASSERT_TRUE(queries.ok());
  PutLocationsInTheCore(*db.oracle(), &*queries);

  auto on = CreateAlgorithm(db, AlgorithmKind::kUots, with);
  auto off = CreateAlgorithm(db, AlgorithmKind::kUots, without);
  auto bf = CreateAlgorithm(db, AlgorithmKind::kBruteForce);

  for (const UotsQuery& q : *queries) {
    auto r_on = on->Search(q);
    auto r_off = off->Search(q);
    auto r_bf = bf->Search(q);
    ASSERT_TRUE(r_on.ok() && r_off.ok() && r_bf.ok());

    // Bit-identity, not tolerance: same ids, same exact doubles.
    ASSERT_EQ(r_on->items.size(), r_off->items.size());
    ASSERT_EQ(r_on->items.size(), r_bf->items.size());
    for (size_t i = 0; i < r_on->items.size(); ++i) {
      EXPECT_EQ(r_on->items[i].id, r_off->items[i].id) << "rank " << i;
      EXPECT_EQ(r_on->items[i].score, r_off->items[i].score) << "rank " << i;
      EXPECT_EQ(r_on->items[i].id, r_bf->items[i].id) << "rank " << i;
      EXPECT_EQ(r_on->items[i].score, r_bf->items[i].score) << "rank " << i;
      EXPECT_EQ(r_on->items[i].spatial_sim, r_bf->items[i].spatial_sim);
      EXPECT_EQ(r_on->items[i].textual_sim, r_bf->items[i].textual_sim);
    }

    // The oracle path actually ran and did less expansion work.
    EXPECT_GT(r_on->stats.oracle_lookups, 0);
    EXPECT_EQ(r_off->stats.oracle_lookups, 0);
  }
}

TEST(OracleSearch, BitIdenticalToExpansionBaselineAndBruteForce) {
  ExpectSearchBitIdentical(*MakeDatabase(/*attach_oracle=*/true));
  ExpectSearchBitIdentical(*MakeDatabase(true, LargerGrid()));
}

void ExpectThresholdBitIdentical(const TrajectoryDatabase& db) {
  UotsSearchOptions with;
  with.use_oracle = true;
  UotsSearchOptions without;
  without.use_oracle = false;
  UotsSearcher on(db, with);
  UotsSearcher off(db, without);

  WorkloadOptions wopts;
  wopts.num_queries = 6;
  wopts.num_locations = 2;
  wopts.lambda = 0.5;
  wopts.k = 5;
  wopts.seed = 99;
  auto queries = MakeWorkload(db, wopts);
  ASSERT_TRUE(queries.ok());
  PutLocationsInTheCore(*db.oracle(), &*queries);

  for (const UotsQuery& q : *queries) {
    for (const double theta : {0.2, 0.5, 0.8}) {
      auto r_on = on.SearchThreshold(q, theta);
      auto r_off = off.SearchThreshold(q, theta);
      ASSERT_TRUE(r_on.ok() && r_off.ok());
      ASSERT_EQ(r_on->items.size(), r_off->items.size()) << "theta " << theta;
      for (size_t i = 0; i < r_on->items.size(); ++i) {
        EXPECT_EQ(r_on->items[i].id, r_off->items[i].id);
        EXPECT_EQ(r_on->items[i].score, r_off->items[i].score);
      }
    }
  }
}

TEST(OracleSearch, ThresholdModeBitIdentical) {
  ExpectThresholdBitIdentical(*MakeDatabase(/*attach_oracle=*/true));
  ExpectThresholdBitIdentical(*MakeDatabase(true, LargerGrid()));
}

/// Same ids and the same score, spatial and textual doubles, in order.
void ExpectSameItems(const std::vector<ScoredTrajectory>& got,
                     const std::vector<ScoredTrajectory>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
    EXPECT_EQ(got[i].spatial_sim, want[i].spatial_sim) << "rank " << i;
    EXPECT_EQ(got[i].textual_sim, want[i].textual_sim) << "rank " << i;
  }
}

TEST(OracleSearch, AnswersDoNotDependOnRoundSize) {
  // The termination test and the finisher are sound at any round boundary,
  // so rounds of any length return the oracle-off and brute-force answers
  // bit for bit, in top-k and threshold mode.
  const auto db = MakeDatabase(/*attach_oracle=*/true, LargerGrid());
  WorkloadOptions wopts;
  wopts.num_queries = 8;
  wopts.num_locations = 3;
  wopts.lambda = 0.6;
  wopts.k = 10;
  wopts.seed = 515;
  auto queries = MakeWorkload(*db, wopts);
  ASSERT_TRUE(queries.ok());
  PutLocationsInTheCore(*db->oracle(), &*queries);

  UotsSearchOptions without;
  without.use_oracle = false;
  UotsSearcher off(*db, without);
  auto bf = CreateAlgorithm(*db, AlgorithmKind::kBruteForce);
  for (const int batch : {1, 7, 64, 1000}) {
    SCOPED_TRACE(batch);
    UotsSearchOptions with;
    with.batch_size = batch;
    UotsSearcher on(*db, with);
    for (const UotsQuery& q : *queries) {
      auto r_on = on.Search(q);
      auto r_off = off.Search(q);
      auto r_bf = bf->Search(q);
      ASSERT_TRUE(r_on.ok() && r_off.ok() && r_bf.ok());
      ExpectSameItems(r_on->items, r_off->items);
      ExpectSameItems(r_on->items, r_bf->items);
      EXPECT_GT(r_on->stats.oracle_lookups, 0);

      // Brute force over every trajectory, cut at theta, is the threshold
      // reference: both sort by (score desc, id asc).
      UotsQuery all = q;
      all.k = static_cast<int>(db->store().size());
      auto r_all = bf->Search(all);
      ASSERT_TRUE(r_all.ok());
      for (const double theta : {0.3, 0.6}) {
        SCOPED_TRACE(theta);
        auto t_on = on.SearchThreshold(q, theta);
        auto t_off = off.SearchThreshold(q, theta);
        ASSERT_TRUE(t_on.ok() && t_off.ok());
        ExpectSameItems(t_on->items, t_off->items);
        std::vector<ScoredTrajectory> want;
        for (const ScoredTrajectory& it : r_all->items) {
          if (it.score >= theta) want.push_back(it);
        }
        ExpectSameItems(t_on->items, want);
      }
    }
  }
}

TEST(OracleSearch, EveryRoundSettlesAtMostOneBatch) {
  // With the oracle on, every expansion round settles at most batch_size
  // vertices, so the termination test and the finisher run within one batch
  // of the point where they can stop the search. 2,000 trips on the 40x40
  // grid grow the partly scanned set well past 4 x 64 states, where the
  // oracle-off rounds lengthen (max(batch_size, |partial| / 4) settles).
  const auto db =
      MakeDatabase(/*attach_oracle=*/true, LargerGrid(), /*num_trajectories=*/2000);
  WorkloadOptions wopts;
  wopts.num_queries = 12;
  wopts.num_locations = 5;
  wopts.lambda = 0.5;
  wopts.k = 10;
  wopts.seed = 301;
  auto queries = MakeWorkload(*db, wopts);
  ASSERT_TRUE(queries.ok());
  PutLocationsInTheCore(*db->oracle(), &*queries);

  const UotsSearchOptions with;  // oracle on, 64-settle rounds
  UotsSearchOptions without;
  without.use_oracle = false;
  UotsSearcher on(*db, with);
  UotsSearcher off(*db, without);
  int64_t on_settled = 0;
  int64_t off_rounds_over_batch = 0;
  for (const UotsQuery& q : *queries) {
    auto r_on = on.Search(q);
    auto t_on = on.SearchThreshold(q, 0.5);
    auto r_off = off.Search(q);
    ASSERT_TRUE(r_on.ok() && t_on.ok() && r_off.ok());
    for (const QueryStats* s : {&r_on->stats, &t_on->stats}) {
      EXPECT_LE(s->settled_vertices, s->schedule_steps * with.batch_size);
      on_settled += s->settled_vertices;
    }
    if (r_off->stats.settled_vertices >
        r_off->stats.schedule_steps * without.batch_size) {
      ++off_rounds_over_batch;
    }
  }
  // Settle counts are deterministic: 14,784 here, against 24,339 when
  // oracle-mode rounds grew with the partly scanned set up to 1,024.
  EXPECT_LT(on_settled, 18000);
  // The oracle-off growth rule is untouched: its rounds outgrow the batch.
  EXPECT_GT(off_rounds_over_batch, 0);
}

TEST(OracleSearch, NoOracleAttachedFallsBackCleanly) {
  auto db = MakeDatabase(/*attach_oracle=*/false);
  UotsSearchOptions with;
  with.use_oracle = true;  // requested but unavailable: plain expansion
  auto engine = CreateAlgorithm(*db, AlgorithmKind::kUots, with);

  WorkloadOptions wopts;
  wopts.num_queries = 2;
  wopts.num_locations = 2;
  wopts.seed = 13;
  auto queries = MakeWorkload(*db, wopts);
  ASSERT_TRUE(queries.ok());
  for (const UotsQuery& q : *queries) {
    auto r = engine->Search(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.oracle_lookups, 0);
  }
}

}  // namespace
}  // namespace uots
