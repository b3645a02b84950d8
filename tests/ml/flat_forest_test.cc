// FlatForest unit tests: layout edge cases (leaf-only trees, empty
// forests, deep unbalanced chains, pure leaves sharing one-hot rows) and
// block-vs-row agreement. The bit-identity of the flat walk with the
// trees on trained forests is proven separately by the differential
// suite (tests/ml/forest_differential_test.cc, ctest -L differential).

#include "ml/flat_forest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
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

// Half the rows are coarse integer points with noisy labels: duplicate
// feature vectors carry different labels, so their leaves cannot split
// and stay mixed. The other half are distinct points with clean labels,
// whose leaves end pure.
Dataset DuplicateRowsDataset(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.num_classes = 3;
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      const double x = static_cast<double>(rng.UniformInt(uint64_t{4}));
      data.features.append_row(std::vector<double>{x, 0.0});
      data.labels.push_back(
          rng.Bernoulli(0.7) ? static_cast<int>(x) % 3
                             : static_cast<int>(rng.UniformInt(uint64_t{3})));
    } else {
      const double x = 10.0 + rng.Gaussian(0.0, 1.0);
      data.features.append_row(
          std::vector<double>{x, rng.Gaussian(0.0, 1.0)});
      data.labels.push_back(x > 10.0 ? 1 : 2);
    }
  }
  data.groups.assign(data.labels.size(), -1);
  return data;
}

// Every leaf reference of the layout (roots and child references < 0),
// as leaf rows.
std::vector<size_t> LeafReferences(const FlatForest& flat) {
  std::vector<size_t> rows;
  auto visit = [&](int32_t ref) {
    if (ref < 0) rows.push_back(static_cast<size_t>(~ref));
  };
  for (const int32_t root : flat.roots()) visit(root);
  for (const FlatForest::Node& node : flat.nodes()) {
    visit(node.left);
    visit(node.right);
  }
  return rows;
}

// The class whose one-hot row `row` is (one entry exactly 1.0, the rest
// +0.0), or -1 for a mixed row.
int OneHotClass(std::span<const double> row) {
  int cls = -1;
  for (size_t c = 0; c < row.size(); ++c) {
    if (row[c] == 1.0 && cls < 0) {
      cls = static_cast<int>(c);
    } else if (row[c] != 0.0 || std::signbit(row[c])) {
      return -1;
    }
  }
  return cls;
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
  EXPECT_EQ(LeafReferences(flat).size(), 5u);
  // All five leaves are pure class 1, so they share one one-hot row.
  ASSERT_EQ(flat.num_leaf_rows(), 1u);
  EXPECT_EQ(OneHotClass(flat.leaf_row(0)), 1);
  for (const size_t row : LeafReferences(flat)) EXPECT_EQ(row, 0u);
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
  // Strict binary tree, counted over leaf references (rows are shared):
  // leaves = internal + trees.
  EXPECT_EQ(flat.num_leaves(),
            flat.num_internal_nodes() + static_cast<size_t>(flat.num_trees()));
  EXPECT_EQ(LeafReferences(flat).size(), flat.num_leaves());
  // Every leaf of the fully grown chain is pure: two one-hot rows in all.
  EXPECT_EQ(flat.num_leaf_rows(), 2u);
  for (size_t i = 0; i < data.features.rows(); ++i) {
    const std::vector<double> expect =
        testing::TreeOracleProba(forest, data.features.row(i));
    const std::vector<double> got = flat.PredictProba(data.features.row(i));
    ASSERT_EQ(expect, got);
  }
}

TEST(FlatForestTest, PureLeavesShareOneHotRowsAndMixedLeavesOwnTheirs) {
  RandomForestOptions options;
  options.num_trees = 10;
  options.num_threads = 1;
  RandomForest forest(options);
  Dataset data = DuplicateRowsDataset(300, 5);
  ASSERT_TRUE(forest.Fit(data).ok());
  const FlatForest& flat = forest.flat_forest();
  const size_t k = static_cast<size_t>(flat.num_classes());

  // Pure and mixed leaves of the source trees.
  size_t pure = 0, mixed = 0;
  for (const DecisionTree& tree : forest.trees()) {
    for (const DecisionTree::Node& node : tree.nodes()) {
      if (node.left >= 0) continue;
      (OneHotClass(node.distribution) >= 0 ? pure : mixed) += 1;
    }
  }
  ASSERT_GT(pure, 0u);
  ASSERT_GT(mixed, 0u);

  // At most one one-hot row per class; every mixed leaf its own row.
  std::vector<int> one_hot_rows_of_class(k, 0);
  size_t mixed_rows = 0;
  for (size_t row = 0; row < flat.num_leaf_rows(); ++row) {
    const int cls = OneHotClass(flat.leaf_row(row));
    if (cls >= 0) {
      ++one_hot_rows_of_class[static_cast<size_t>(cls)];
    } else {
      ++mixed_rows;
    }
  }
  for (const int count : one_hot_rows_of_class) EXPECT_LE(count, 1);
  EXPECT_EQ(mixed_rows, mixed);
  size_t pure_refs = 0;
  for (const size_t row : LeafReferences(flat)) {
    ASSERT_LT(row, flat.num_leaf_rows());
    if (OneHotClass(flat.leaf_row(row)) >= 0) ++pure_refs;
  }
  EXPECT_EQ(pure_refs, pure);
  EXPECT_EQ(flat.num_leaves(), pure + mixed);

  for (size_t i = 0; i < data.features.rows(); ++i) {
    ASSERT_EQ(flat.PredictProba(data.features.row(i)),
              testing::TreeOracleProba(forest, data.features.row(i)));
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
