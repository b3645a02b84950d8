// FlatForest unit tests: layout edge cases (leaf-only trees, empty
// forests, deep unbalanced chains) and block-vs-row agreement. The
// bit-identity of the flat walk with the trees on trained forests is
// proven separately by the differential suite
// (tests/ml/forest_differential_test.cc, ctest -L differential).

#include "ml/flat_forest.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "ml/random_forest.h"
#include "testing/forest_oracle.h"

namespace strudel::ml {
namespace {

Dataset TwoBlobDataset(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.num_classes = 2;
  for (int i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.UniformInt(2));
    data.features.append_row(std::vector<double>{
        (cls == 0 ? -1.0 : 1.0) + rng.Gaussian(0.0, 0.3),
        rng.Gaussian(0.0, 1.0)});
    data.labels.push_back(cls);
  }
  data.groups.assign(data.labels.size(), -1);
  return data;
}

// A dataset whose labels are constant: every tree is a single leaf.
Dataset ConstantLabelDataset(int n) {
  Dataset data;
  data.num_classes = 3;
  for (int i = 0; i < n; ++i) {
    data.features.append_row(std::vector<double>{static_cast<double>(i), 1.0});
    data.labels.push_back(1);
  }
  data.groups.assign(data.labels.size(), -1);
  return data;
}

// Monotone 1-D labels with min_samples_leaf 1 and depth cap 0 produce a
// deep unbalanced chain of splits.
Dataset StaircaseDataset(int n) {
  Dataset data;
  data.num_classes = 2;
  for (int i = 0; i < n; ++i) {
    data.features.append_row(std::vector<double>{static_cast<double>(i)});
    data.labels.push_back(i % 2);
  }
  data.groups.assign(data.labels.size(), -1);
  return data;
}

TEST(FlatForestTest, EmptyForestIsEmptyAndPredictsZeros) {
  FlatForest flat;
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.num_trees(), 0);
  // Untrained RandomForest also exposes an empty flat forest.
  RandomForest forest;
  EXPECT_TRUE(forest.flat_forest().empty());
}

TEST(FlatForestTest, LeafOnlyTreesHaveNoInternalNodes) {
  RandomForestOptions options;
  options.num_trees = 5;
  options.num_threads = 1;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(ConstantLabelDataset(20)).ok());
  const FlatForest& flat = forest.flat_forest();
  EXPECT_EQ(flat.num_trees(), 5);
  EXPECT_EQ(flat.num_internal_nodes(), 0u);
  EXPECT_EQ(flat.num_leaves(), 5u);
  const std::vector<double> proba =
      flat.PredictProba(std::vector<double>{0.0, 0.0});
  ASSERT_EQ(proba.size(), 3u);
  EXPECT_DOUBLE_EQ(proba[1], 1.0);
}

TEST(FlatForestTest, DeepUnbalancedTreeMatchesPointerWalk) {
  RandomForestOptions options;
  options.num_trees = 1;
  options.bootstrap = false;
  options.max_features = 0;
  options.num_threads = 1;
  RandomForest forest(options);
  Dataset data = StaircaseDataset(64);
  ASSERT_TRUE(forest.Fit(data).ok());
  const FlatForest& flat = forest.flat_forest();
  EXPECT_GE(flat.num_internal_nodes(), 8u);
  // Strict binary tree: leaves = internal + trees.
  EXPECT_EQ(flat.num_leaves(),
            flat.num_internal_nodes() + static_cast<size_t>(flat.num_trees()));
  for (size_t i = 0; i < data.features.rows(); ++i) {
    const std::vector<double> expect =
        testing::TreeOracleProba(forest, data.features.row(i));
    const std::vector<double> got = flat.PredictProba(data.features.row(i));
    ASSERT_EQ(expect, got);
  }
}

TEST(FlatForestTest, PredictBlockMatchesPerRow) {
  RandomForestOptions options;
  options.num_trees = 12;
  options.num_threads = 1;
  RandomForest forest(options);
  Dataset data = TwoBlobDataset(90, 11);
  ASSERT_TRUE(forest.Fit(data).ok());
  const FlatForest& flat = forest.flat_forest();
  const size_t k = static_cast<size_t>(flat.num_classes());
  std::vector<double> block(data.features.rows() * k);
  flat.PredictBlock(data.features, 0, data.features.rows(), block.data());
  for (size_t i = 0; i < data.features.rows(); ++i) {
    const std::vector<double> row = flat.PredictProba(data.features.row(i));
    for (size_t c = 0; c < k; ++c) {
      ASSERT_EQ(row[c], block[i * k + c]);
    }
  }
}

}  // namespace
}  // namespace strudel::ml
