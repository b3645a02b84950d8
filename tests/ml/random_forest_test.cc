#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace strudel::ml {
namespace {

Dataset SpiralDataset(int n, int num_classes, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.num_classes = num_classes;
  for (int i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.UniformInt(
        static_cast<uint64_t>(num_classes)));
    const double angle =
        2.0 * M_PI * cls / num_classes + rng.Gaussian(0.0, 0.15);
    const double radius = 1.0 + rng.Gaussian(0.0, 0.1);
    data.features.append_row(std::vector<double>{
        radius * std::cos(angle), radius * std::sin(angle)});
    data.labels.push_back(cls);
  }
  data.groups.assign(data.labels.size(), -1);
  return data;
}

RandomForestOptions SmallForest(uint64_t seed = 42) {
  RandomForestOptions options;
  options.num_trees = 25;
  options.seed = seed;
  options.num_threads = 2;
  return options;
}

TEST(RandomForestTest, LearnsMultiClassProblem) {
  Dataset train = SpiralDataset(600, 4, 1);
  Dataset test = SpiralDataset(200, 4, 2);
  RandomForest forest(SmallForest());
  ASSERT_TRUE(forest.Fit(train).ok());
  int correct = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    if (forest.Predict(test.features.row(i)) == test.labels[i]) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(test.size() * 0.9));
}

TEST(RandomForestTest, ProbabilitiesSumToOne) {
  Dataset data = SpiralDataset(200, 3, 3);
  RandomForest forest(SmallForest());
  ASSERT_TRUE(forest.Fit(data).ok());
  std::vector<double> proba =
      forest.PredictProba(std::vector<double>{0.5, 0.5});
  ASSERT_EQ(proba.size(), 3u);
  double sum = 0.0;
  for (double p : proba) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  Dataset data = SpiralDataset(300, 3, 4);
  RandomForest a(SmallForest(7)), b(SmallForest(7));
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x = {i * 0.1 - 1.0, 0.3};
    EXPECT_EQ(a.PredictProba(x), b.PredictProba(x));
  }
}

TEST(RandomForestTest, DeterministicAcrossThreadCounts) {
  Dataset data = SpiralDataset(300, 3, 5);
  RandomForestOptions serial = SmallForest(9);
  serial.num_threads = 1;
  RandomForestOptions parallel = SmallForest(9);
  parallel.num_threads = 4;
  RandomForest a(serial), b(parallel);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x = {i * 0.1 - 1.0, -0.2};
    EXPECT_EQ(a.PredictProba(x), b.PredictProba(x));
  }
}

TEST(RandomForestTest, NumTreesHonored) {
  Dataset data = SpiralDataset(100, 2, 6);
  RandomForestOptions options = SmallForest();
  options.num_trees = 13;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(data).ok());
  EXPECT_EQ(forest.num_trees(), 13);
}

TEST(RandomForestTest, EmptyDatasetRejected) {
  Dataset data;
  data.num_classes = 2;
  RandomForest forest(SmallForest());
  EXPECT_FALSE(forest.Fit(data).ok());
}

TEST(RandomForestTest, FeatureImportancesIdentifySignal) {
  Rng rng(7);
  Dataset data;
  data.num_classes = 2;
  for (int i = 0; i < 300; ++i) {
    const double signal = rng.Bernoulli(0.5) ? 0.0 : 1.0;
    data.features.append_row(std::vector<double>{
        rng.UniformDouble(), signal, rng.UniformDouble()});
    data.labels.push_back(static_cast<int>(signal));
  }
  data.groups.assign(300, -1);
  RandomForest forest(SmallForest());
  ASSERT_TRUE(forest.Fit(data).ok());
  std::vector<double> importances = forest.FeatureImportances();
  ASSERT_EQ(importances.size(), 3u);
  EXPECT_GT(importances[1], importances[0]);
  EXPECT_GT(importances[1], importances[2]);
  EXPECT_GT(importances[1], 0.5);
}

TEST(RandomForestTest, WithoutBootstrapStillLearns) {
  Dataset data = SpiralDataset(300, 2, 8);
  RandomForestOptions options = SmallForest();
  options.bootstrap = false;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(data).ok());
  int correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (forest.Predict(data.features.row(i)) == data.labels[i]) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(data.size() * 0.95));
}

TEST(RandomForestTest, PredictAllMatchesScalarPredict) {
  Dataset data = SpiralDataset(100, 3, 9);
  RandomForest forest(SmallForest());
  ASSERT_TRUE(forest.Fit(data).ok());
  std::vector<int> bulk = forest.PredictAll(data.features);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(bulk[i], forest.Predict(data.features.row(i)));
  }
}

TEST(RandomForestTest, BudgetTripResetsBatchedOutputsToZero) {
  // 600 rows in 64-row chunks against a 200-unit work cap: three chunks
  // fit and the fourth trips the budget. The rows the finished chunks
  // wrote must not survive the error.
  Dataset data = SpiralDataset(600, 4, 21);
  RandomForestOptions options = SmallForest();
  options.num_trees = 5;
  options.num_threads = 1;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(data).ok());

  std::vector<int> classes;
  auto budget = ExecutionBudget::Limited(0.0, 200);
  EXPECT_FALSE(
      forest.TryPredictAll(data.features, budget.get(), "predict", &classes)
          .ok());
  ASSERT_EQ(classes.size(), data.size());
  for (const int cls : classes) ASSERT_EQ(cls, 0);

  std::vector<std::vector<double>> probas;
  budget = ExecutionBudget::Limited(0.0, 200);
  EXPECT_FALSE(forest
                   .TryPredictProbaAll(data.features, budget.get(), "predict",
                                       &probas)
                   .ok());
  ASSERT_EQ(probas.size(), data.size());
  for (const std::vector<double>& row : probas) {
    ASSERT_EQ(row, std::vector<double>(4, 0.0));
  }
}

TEST(RandomForestTest, OobScoreApproximatesHeldOutAccuracy) {
  Dataset train = SpiralDataset(500, 3, 11);
  Dataset test = SpiralDataset(300, 3, 12);
  RandomForestOptions options = SmallForest();
  options.compute_oob_score = true;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());
  ASSERT_GE(forest.oob_score(), 0.0);
  int correct = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    if (forest.Predict(test.features.row(i)) == test.labels[i]) ++correct;
  }
  const double test_accuracy =
      static_cast<double>(correct) / static_cast<double>(test.size());
  EXPECT_NEAR(forest.oob_score(), test_accuracy, 0.08);
}

TEST(RandomForestTest, OobScoreAbsentByDefaultAndWithoutBootstrap) {
  Dataset data = SpiralDataset(150, 2, 13);
  RandomForest default_forest(SmallForest());
  ASSERT_TRUE(default_forest.Fit(data).ok());
  EXPECT_EQ(default_forest.oob_score(), -1.0);

  RandomForestOptions options = SmallForest();
  options.compute_oob_score = true;
  options.bootstrap = false;
  RandomForest no_bootstrap(options);
  ASSERT_TRUE(no_bootstrap.Fit(data).ok());
  EXPECT_EQ(no_bootstrap.oob_score(), -1.0);
}

TEST(RandomForestTest, CloneUntrainedKeepsConfiguration) {
  RandomForestOptions options = SmallForest();
  options.num_trees = 5;
  RandomForest forest(options);
  Dataset data = SpiralDataset(80, 2, 10);
  ASSERT_TRUE(forest.Fit(data).ok());
  auto clone = forest.CloneUntrained();
  ASSERT_TRUE(clone->Fit(data).ok());
  auto* forest_clone = dynamic_cast<RandomForest*>(clone.get());
  ASSERT_NE(forest_clone, nullptr);
  EXPECT_EQ(forest_clone->num_trees(), 5);
}

}  // namespace
}  // namespace strudel::ml
