// Dataset statistics: distribution summaries and generator properties.

#include <gtest/gtest.h>

#include "net/generators.h"
#include "traj/generator.h"
#include "traj/stats.h"

namespace uots {
namespace {

TEST(Summarize, FiveNumberValues) {
  const DistributionSummary s = Summarize({5, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.p50, 3);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  const DistributionSummary empty = Summarize({});
  EXPECT_DOUBLE_EQ(empty.mean, 0);
}

TEST(DatasetStats, ReflectsGeneratorProperties) {
  GridNetworkOptions gopts;
  gopts.rows = 25;
  gopts.cols = 25;
  auto g = MakeGridNetwork(gopts);
  ASSERT_TRUE(g.ok());
  TripGeneratorOptions topts;
  topts.num_trajectories = 300;
  topts.min_keywords = 3;
  topts.max_keywords = 10;
  auto data = GenerateTrips(*g, topts);
  ASSERT_TRUE(data.ok());
  const DatasetStats stats = ComputeDatasetStats(*g, data->store);
  EXPECT_EQ(stats.num_trajectories, 300u);
  EXPECT_EQ(stats.total_samples, data->store.TotalSamples());
  EXPECT_GE(stats.samples_per_trajectory.min, 2.0);
  EXPECT_GE(stats.keywords_per_trajectory.min, 1.0);
  EXPECT_LE(stats.keywords_per_trajectory.max, 10.0);
  EXPECT_GT(stats.duration_minutes.mean, 0.0);
  EXPECT_GT(stats.vertex_coverage, 0.3);
  EXPECT_LE(stats.vertex_coverage, 1.0);
  // Rush-hour departures: the two busiest hours carry well more than the
  // uniform share of 2/24.
  EXPECT_GT(stats.temporal_skew, 2.0 / 24.0 * 1.5);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(DatasetStats, EmptyStore) {
  GridNetworkOptions gopts;
  gopts.rows = 4;
  gopts.cols = 4;
  auto g = MakeGridNetwork(gopts);
  ASSERT_TRUE(g.ok());
  const DatasetStats stats = ComputeDatasetStats(*g, TrajectoryStore());
  EXPECT_EQ(stats.num_trajectories, 0u);
  EXPECT_DOUBLE_EQ(stats.vertex_coverage, 0.0);
  EXPECT_DOUBLE_EQ(stats.temporal_skew, 0.0);
}

}  // namespace
}  // namespace uots
