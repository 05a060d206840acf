// Shortest-path correctness: the reference tree and pairwise Dijkstra vs
// Floyd-Warshall on random graphs, parameterized over seeds (property-style
// sweep).

#include "net/dijkstra.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/generators.h"
#include "util/rng.h"

namespace uots {
namespace {

/// O(V^3) all-pairs reference.
std::vector<std::vector<double>> FloydWarshall(const RoadNetwork& g) {
  const size_t n = g.NumVertices();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, kInfDistance));
  for (size_t v = 0; v < n; ++v) {
    d[v][v] = 0.0;
    for (const auto& e : g.Neighbors(static_cast<VertexId>(v))) {
      d[v][e.to] = std::min(d[v][e.to], static_cast<double>(e.weight));
    }
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (d[i][k] == kInfDistance) continue;
      for (size_t j = 0; j < n; ++j) {
        if (d[i][k] + d[k][j] < d[i][j]) d[i][j] = d[i][k] + d[k][j];
      }
    }
  }
  return d;
}

RoadNetwork SmallRandomNetwork(uint64_t seed) {
  RandomGeometricOptions opts;
  opts.num_vertices = 60;
  opts.extent_m = 1000.0;
  opts.k_nearest = 3;
  opts.seed = seed;
  auto g = MakeRandomGeometricNetwork(opts);
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

class DijkstraPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraPropertyTest, TreeMatchesFloydWarshall) {
  const RoadNetwork g = SmallRandomNetwork(GetParam());
  const auto ref = FloydWarshall(g);
  for (VertexId s = 0; s < g.NumVertices(); s += 7) {
    const ShortestPathTree tree = ComputeShortestPathTree(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      EXPECT_NEAR(tree.dist[t], ref[s][t], 1e-6) << "s=" << s << " t=" << t;
    }
  }
}

TEST_P(DijkstraPropertyTest, PairDistanceMatchesTree) {
  const RoadNetwork g = SmallRandomNetwork(GetParam() + 100);
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId s = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    const VertexId t = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    const ShortestPathTree tree = ComputeShortestPathTree(g, s);
    EXPECT_NEAR(ShortestPathDistance(g, s, t), tree.dist[t], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(Dijkstra, SourceEqualsTarget) {
  const RoadNetwork g = SmallRandomNetwork(5);
  EXPECT_DOUBLE_EQ(ShortestPathDistance(g, 3, 3), 0.0);
  EXPECT_DOUBLE_EQ(ComputeShortestPathTree(g, 3).dist[3], 0.0);
}

TEST(DistanceField, ResetIsCheapAndComplete) {
  DistanceField f(10);
  f.Set(3, 1.5);
  EXPECT_TRUE(f.IsSet(3));
  EXPECT_DOUBLE_EQ(f.Get(3), 1.5);
  EXPECT_EQ(f.Get(4), kInfDistance);
  f.Reset();
  EXPECT_FALSE(f.IsSet(3));
  EXPECT_EQ(f.Get(3), kInfDistance);
}

}  // namespace
}  // namespace uots
