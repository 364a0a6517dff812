// Tests for permutation importance.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/permutation_importance.h"
#include "ml/random_forest.h"

namespace trajkit {
namespace {

// ------------------------------------------------ Permutation importance --

ml::Dataset SignalNoiseProblem(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const int y = static_cast<int>(rng.NextBounded(2));
    rows.push_back({static_cast<double>(y) + rng.Gaussian(0.0, 0.3),
                    rng.Gaussian(0.0, 1.0), rng.Gaussian(0.0, 1.0)});
    labels.push_back(y);
  }
  return std::move(ml::Dataset::Create(ml::Matrix::FromRows(rows),
                                       std::move(labels), {},
                                       {"signal", "n1", "n2"},
                                       {"a", "b"}))
      .value();
}

TEST(PermutationImportanceTest, SignalFeatureDominates) {
  const ml::Dataset train = SignalNoiseProblem(400, 7);
  const ml::Dataset holdout = SignalNoiseProblem(200, 8);
  ml::RandomForestParams params;
  params.n_estimators = 15;
  ml::RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const auto scores = ml::PermutationImportance(forest, holdout);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), 3u);
  EXPECT_EQ((*scores)[0].feature_index, 0);
  EXPECT_GT((*scores)[0].score, 0.2);  // Shuffling the signal hurts a lot.
  // Noise features barely matter either way.
  EXPECT_LT(std::fabs((*scores)[1].score), 0.1);
  EXPECT_LT(std::fabs((*scores)[2].score), 0.1);
}

TEST(PermutationImportanceTest, DeterministicGivenSeed) {
  const ml::Dataset train = SignalNoiseProblem(200, 9);
  const ml::Dataset holdout = SignalNoiseProblem(100, 10);
  ml::RandomForestParams params;
  params.n_estimators = 8;
  ml::RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const auto s1 = ml::PermutationImportance(forest, holdout);
  const auto s2 = ml::PermutationImportance(forest, holdout);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  for (size_t i = 0; i < s1->size(); ++i) {
    EXPECT_EQ((*s1)[i].feature_index, (*s2)[i].feature_index);
    EXPECT_DOUBLE_EQ((*s1)[i].score, (*s2)[i].score);
  }
}

TEST(PermutationImportanceTest, HoldoutUnchangedAfterRun) {
  const ml::Dataset train = SignalNoiseProblem(150, 11);
  const ml::Dataset holdout = SignalNoiseProblem(80, 12);
  ml::RandomForestParams params;
  params.n_estimators = 5;
  ml::RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const ml::Matrix before = holdout.features();
  ASSERT_TRUE(ml::PermutationImportance(forest, holdout).ok());
  for (size_t r = 0; r < before.rows(); ++r) {
    for (size_t c = 0; c < before.cols(); ++c) {
      EXPECT_DOUBLE_EQ(holdout.features()(r, c), before(r, c));
    }
  }
}

TEST(PermutationImportanceTest, InvalidInputsRejected) {
  const ml::Dataset train = SignalNoiseProblem(100, 13);
  ml::RandomForestParams params;
  params.n_estimators = 5;
  ml::RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  ml::Dataset tiny = SignalNoiseProblem(100, 14)
                         .SelectSamples(std::vector<size_t>{0});
  EXPECT_FALSE(ml::PermutationImportance(forest, tiny).ok());
  ml::PermutationImportanceOptions bad;
  bad.repeats = 0;
  EXPECT_FALSE(ml::PermutationImportance(forest, train, bad).ok());
}

}  // namespace
}  // namespace trajkit
