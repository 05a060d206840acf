// A* correctness against Dijkstra ground truth.

#include "net/astar.h"

#include <gtest/gtest.h>

#include "net/generators.h"
#include "util/rng.h"

namespace uots {
namespace {

RoadNetwork TestNetwork(uint64_t seed) {
  GridNetworkOptions opts;
  opts.rows = 20;
  opts.cols = 20;
  opts.seed = seed;
  auto g = MakeGridNetwork(opts);
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

class AStarPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AStarPropertyTest, EuclideanHeuristicMatchesDijkstra) {
  const RoadNetwork g = TestNetwork(GetParam());
  AStarEngine astar(g);
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const VertexId s = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    const VertexId t = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    const double expected = ShortestPathDistance(g, s, t);
    const PathResult r = astar.FindPath(s, t);
    EXPECT_NEAR(r.distance, expected, 1e-6) << "s=" << s << " t=" << t;
    ASSERT_FALSE(r.path.empty());
    EXPECT_EQ(r.path.front(), s);
    EXPECT_EQ(r.path.back(), t);
  }
}

TEST_P(AStarPropertyTest, PathEdgesAreAdjacentAndSumToDistance) {
  const RoadNetwork g = TestNetwork(GetParam() + 5);
  AStarEngine astar(g);
  Rng rng(GetParam() + 5);
  for (int trial = 0; trial < 10; ++trial) {
    const VertexId s = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    const VertexId t = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    const PathResult r = astar.FindPath(s, t);
    double sum = 0.0;
    for (size_t i = 0; i + 1 < r.path.size(); ++i) {
      double w = -1.0;
      for (const auto& e : g.Neighbors(r.path[i])) {
        if (e.to == r.path[i + 1]) w = e.weight;
      }
      ASSERT_GT(w, 0.0) << "path uses non-edge";
      sum += w;
    }
    EXPECT_NEAR(sum, r.distance, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AStarPropertyTest, ::testing::Values(3, 7, 13));

TEST(AStar, SourceEqualsTarget) {
  const RoadNetwork g = TestNetwork(1);
  AStarEngine astar(g);
  const PathResult r = astar.FindPath(5, 5);
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
  ASSERT_EQ(r.path.size(), 1u);
  EXPECT_EQ(r.path[0], 5u);
}

TEST(AStar, DistanceOnlySkipsPath) {
  const RoadNetwork g = TestNetwork(2);
  AStarEngine astar(g);
  EXPECT_NEAR(astar.Distance(0, 10), ShortestPathDistance(g, 0, 10), 1e-6);
}

}  // namespace
}  // namespace uots
