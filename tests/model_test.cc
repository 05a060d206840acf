// Similarity model, query validation, and the TopK accumulator.

#include "core/model.h"

#include <gtest/gtest.h>

#include "core/query.h"
#include "core/temporal.h"
#include "core/topk.h"

namespace uots {
namespace {

TEST(SimilarityModel, DecayIsOneAtZeroAndMonotone) {
  const SimilarityModel model;
  EXPECT_DOUBLE_EQ(model.SpatialDecay(0.0), 1.0);
  EXPECT_GT(model.SpatialDecay(100.0), model.SpatialDecay(200.0));
  EXPECT_NEAR(model.SpatialDecay(model.sigma_m()), std::exp(-1.0), 1e-12);
}

TEST(SimilarityModel, SigmaControlsScale) {
  SimilarityOptions tight, loose;
  tight.sigma_m = 100.0;
  loose.sigma_m = 10000.0;
  const SimilarityModel mt(tight), ml(loose);
  EXPECT_LT(mt.SpatialDecay(1000.0), ml.SpatialDecay(1000.0));
}

TEST(SimilarityModel, SpatialSimIsMeanOfDecays) {
  const SimilarityModel model;
  const double d[] = {0.0, model.sigma_m()};
  EXPECT_NEAR(model.SpatialSim(d), (1.0 + std::exp(-1.0)) / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(model.SpatialSim({}), 0.0);
}

TEST(SimilarityModel, SpatialSimInUnitInterval) {
  const SimilarityModel model;
  const double d[] = {0.0, 1e9, 500.0};
  const double s = model.SpatialSim(d);
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
}

TEST(SimilarityModel, CombineEndpoints) {
  EXPECT_DOUBLE_EQ(SimilarityModel::Combine(1.0, 0.8, 0.2), 0.8);
  EXPECT_DOUBLE_EQ(SimilarityModel::Combine(0.0, 0.8, 0.2), 0.2);
  EXPECT_DOUBLE_EQ(SimilarityModel::Combine(0.5, 0.8, 0.2), 0.5);
}

TEST(ValidateQuery, AcceptsReasonableQuery) {
  UotsQuery q;
  q.locations = {1, 2, 3};
  q.lambda = 0.5;
  q.k = 10;
  EXPECT_TRUE(ValidateQuery(q, 100).ok());
}

TEST(ValidateQuery, RejectsBadQueries) {
  UotsQuery q;
  EXPECT_FALSE(ValidateQuery(q, 100).ok());  // no locations
  q.locations = {5};
  q.lambda = 1.5;
  EXPECT_FALSE(ValidateQuery(q, 100).ok());  // lambda
  q.lambda = 0.5;
  q.k = 0;
  EXPECT_FALSE(ValidateQuery(q, 100).ok());  // k
  q.k = 1;
  q.locations = {200};
  EXPECT_FALSE(ValidateQuery(q, 100).ok());  // out of range
  q.locations.assign(65, 1);
  EXPECT_FALSE(ValidateQuery(q, 100).ok());  // too many
}

TEST(TopK, KeepsHighestScores) {
  TopK topk(3);
  EXPECT_FALSE(topk.Full());
  EXPECT_EQ(topk.Threshold(), -std::numeric_limits<double>::infinity());
  for (int i = 0; i < 10; ++i) {
    topk.Offer(ScoredTrajectory{static_cast<TrajId>(i), i * 0.1, 0, 0});
  }
  EXPECT_TRUE(topk.Full());
  EXPECT_NEAR(topk.Threshold(), 0.7, 1e-12);
  const auto items = std::move(topk).Finish();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].id, 9u);
  EXPECT_EQ(items[1].id, 8u);
  EXPECT_EQ(items[2].id, 7u);
}

TEST(TopK, TiesBrokenByAscendingId) {
  TopK topk(3);
  topk.Offer(ScoredTrajectory{5, 0.5, 0, 0});
  topk.Offer(ScoredTrajectory{1, 0.5, 0, 0});
  topk.Offer(ScoredTrajectory{9, 0.9, 0, 0});
  const auto items = std::move(topk).Finish();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].id, 9u);
  EXPECT_EQ(items[1].id, 1u);
  EXPECT_EQ(items[2].id, 5u);

  // At the boundary of a full accumulator, an equal-score offer with a
  // lower id displaces the kept item, for both item types.
  TopK<ScoredTrajectory> one(1);
  one.Offer(ScoredTrajectory{5, 0.5, 0, 0});
  one.Offer(ScoredTrajectory{1, 0.5, 0, 0});
  const auto kept = std::move(one).Finish();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].id, 1u);

  TopK<TemporalScoredTrajectory> one_3d(1);
  one_3d.Offer(TemporalScoredTrajectory{5, 0.5, 0, 0, 0});
  one_3d.Offer(TemporalScoredTrajectory{1, 0.5, 0, 0, 0});
  const auto kept_3d = std::move(one_3d).Finish();
  ASSERT_EQ(kept_3d.size(), 1u);
  EXPECT_EQ(kept_3d[0].id, 1u);
}

TEST(TopK, FewerItemsThanK) {
  TopK topk(10);
  topk.Offer(ScoredTrajectory{1, 0.3, 0, 0});
  const auto items = std::move(topk).Finish();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].id, 1u);
}

}  // namespace
}  // namespace uots
