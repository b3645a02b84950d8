// Differential suite for the flat inference engine: on forests trained
// from real corpus line features and on property-generated feature
// matrices (including NaN/Inf rows), the flat breadth-first layout must
// produce bit-identical probabilities and classes to the pointer walk of
// the trees themselves — at 1, 2 and 8 threads, through the batched and
// the per-row entry points, and across a save/load round trip.
//
// The reference never calls the flat engine: it sums each tree's
// DecisionTree::PredictProba in tree order and scales once
// (testing/forest_oracle.h). "Bit-identical" is EXPECT_EQ on doubles
// throughout: both walks add the same per-tree leaf distributions in the
// same order and scale once, so even the rounding is the same.
//
// The early-exit vote (TryPredictAll, FlatForest::VoteBlock) is held to
// the argmax of that reference on every row, and its
// ml.forest_trees_walked count to the settle points replayed from the
// trees: on the trained forests above, and on hand-built forests whose
// margin equals the trees left before a tie, whose mixed leaves make
// fractional near-ties, whose paired rows settle at different trees,
// whose rows carry NaN, and whose leaves exceed 1 (no exit).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "datagen/corpus.h"
#include "ml/matrix.h"
#include "ml/random_forest.h"
#include "strudel/strudel_line.h"
#include "testing/forest_oracle.h"

namespace strudel::ml {
namespace {

using ::strudel::testing::TreeOracleProba;
using ::strudel::testing::TreeOracleProbaAll;

uint64_t TreesWalked() {
  return metrics::GetCounter("ml.forest_trees_walked").Value();
}

// The trees a row's vote walks, replayed from the trees' own leaf
// distributions in tree order: the first w > T/2 after which
// (leader - runner-up) - (T - w) > FlatForest::ExitSlack(T), else T.
size_t OracleSettlePoint(const RandomForest& forest,
                         std::span<const double> row) {
  const std::vector<DecisionTree>& trees = forest.trees();
  const size_t num_trees = trees.size();
  std::vector<double> acc(static_cast<size_t>(forest.num_classes()), 0.0);
  for (size_t w = 1; w <= num_trees; ++w) {
    const std::vector<double> leaf = trees[w - 1].PredictProba(row);
    for (size_t c = 0; c < acc.size(); ++c) acc[c] += leaf[c];
    if (2 * w <= num_trees) continue;
    const size_t leader = ArgMax(acc);
    double runner_up = 0.0;
    for (size_t c = 0; c < acc.size(); ++c) {
      if (c != leader) runner_up = std::max(runner_up, acc[c]);
    }
    if ((acc[leader] - runner_up) - static_cast<double>(num_trees - w) >
        FlatForest::ExitSlack(static_cast<int>(num_trees))) {
      return w;
    }
  }
  return num_trees;
}

uint64_t OracleTreesWalked(const RandomForest& forest,
                           const Matrix& features) {
  uint64_t walked = 0;
  for (size_t i = 0; i < features.rows(); ++i) {
    walked += OracleSettlePoint(forest, features.row(i));
  }
  return walked;
}

// Every predict entry point of the forest — batched probabilities,
// batched classes and per-row probabilities — against the reference, and
// the trees each batched path walked against its replay.
void ExpectForestMatches(const RandomForest& forest, const Matrix& features,
                         const std::vector<std::vector<double>>& reference) {
  std::vector<std::vector<double>> probas;
  uint64_t before = TreesWalked();
  const Status status =
      forest.TryPredictProbaAll(features, nullptr, "forest_predict", &probas);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(probas.size(), reference.size());
  EXPECT_EQ(TreesWalked() - before,
            features.rows() * forest.trees().size());
  std::vector<int> classes;
  before = TreesWalked();
  const Status class_status =
      forest.TryPredictAll(features, nullptr, "forest_predict", &classes);
  ASSERT_TRUE(class_status.ok()) << class_status.ToString();
  ASSERT_EQ(classes.size(), reference.size());
  EXPECT_EQ(TreesWalked() - before, OracleTreesWalked(forest, features))
      << "threads " << forest.num_threads();
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(probas[i], reference[i])
        << "row " << i << " threads " << forest.num_threads();
    ASSERT_EQ(forest.PredictProba(features.row(i)), reference[i])
        << "row " << i;
    ASSERT_EQ(classes[i], static_cast<int>(ArgMax(reference[i])))
        << "row " << i << " threads " << forest.num_threads();
  }
}

void ExpectAgreementAtAllThreadCounts(RandomForest& forest,
                                      const Matrix& features) {
  const std::vector<std::vector<double>> reference =
      TreeOracleProbaAll(forest, features);
  for (const int threads : {1, 2, 8}) {
    forest.set_num_threads(threads);
    ExpectForestMatches(forest, features, reference);
  }
}

TEST(ForestDifferentialTest, FlatMatchesPointerOnCorpusLineFeatures) {
  // Real features: the line featurisation of a generated corpus, the
  // exact matrix shape the production predict path feeds the forest.
  datagen::DatasetProfile profile =
      datagen::ScaledProfile(datagen::SausProfile(), 0.05, 0.4);
  const auto corpus = datagen::GenerateCorpus(profile, 1234);
  ASSERT_GE(corpus.size(), 4u);

  std::vector<const AnnotatedFile*> train_files, test_files;
  for (size_t i = 0; i < corpus.size(); ++i) {
    (i % 2 == 0 ? train_files : test_files).push_back(&corpus[i]);
  }
  const LineFeatureOptions feature_options;
  Dataset train = StrudelLine::BuildDataset(train_files, feature_options);
  Dataset held_out = StrudelLine::BuildDataset(test_files, feature_options);
  ASSERT_GT(train.size(), 0u);
  ASSERT_GT(held_out.size(), 0u);

  RandomForestOptions options;
  options.num_trees = 24;
  options.num_threads = 1;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());
  ASSERT_FALSE(forest.flat_forest().empty());

  ExpectAgreementAtAllThreadCounts(forest, train.features);
  ExpectAgreementAtAllThreadCounts(forest, held_out.features);
  // The vote does stop early on real features.
  EXPECT_LT(OracleTreesWalked(forest, held_out.features),
            held_out.features.rows() * forest.trees().size());
}

TEST(ForestDifferentialTest, FlatMatchesPointerOnPropertyMatrices) {
  // Property-generated feature matrices: random values spanning huge and
  // tiny magnitudes, exact split-threshold hits, and rows poisoned with
  // NaN / +-Inf. Both walks must take the same branch everywhere
  // (NaN fails `v <= t` and goes right in both).
  Rng rng(987);
  Dataset train;
  train.num_classes = 3;
  const size_t kFeatures = 6;
  for (int i = 0; i < 400; ++i) {
    std::vector<double> row(kFeatures);
    for (double& v : row) v = rng.Gaussian(0.0, 2.0);
    const int label = static_cast<int>(rng.UniformInt(uint64_t{3}));
    row[0] += 2.0 * label;  // learnable signal
    train.features.append_row(row);
    train.labels.push_back(label);
  }
  train.groups.assign(train.labels.size(), -1);

  RandomForestOptions options;
  options.num_trees = 16;
  options.num_threads = 1;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());

  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (int round = 0; round < 20; ++round) {
    Matrix probe(0, kFeatures);
    const int rows = 1 + static_cast<int>(rng.UniformInt(uint64_t{120}));
    for (int i = 0; i < rows; ++i) {
      std::vector<double> row(kFeatures);
      for (double& v : row) {
        switch (rng.UniformInt(uint64_t{8})) {
          case 0: v = kNan; break;
          case 1: v = kInf; break;
          case 2: v = -kInf; break;
          case 3: v = 0.0; break;
          case 4: v = rng.Gaussian(0.0, 1e12); break;
          default: v = rng.Gaussian(0.0, 2.0); break;
        }
      }
      probe.append_row(row);
    }
    SCOPED_TRACE("round=" + std::to_string(round));
    ExpectAgreementAtAllThreadCounts(forest, probe);
  }
}

TEST(ForestDifferentialTest, SaveLoadRoundTripIsBitIdentical) {
  Rng rng(555);
  Dataset train;
  train.num_classes = 2;
  for (int i = 0; i < 300; ++i) {
    const int label = static_cast<int>(rng.UniformInt(uint64_t{2}));
    train.features.append_row(std::vector<double>{
        rng.Gaussian(label == 0 ? -1.0 : 1.0, 0.5), rng.Gaussian(0.0, 1.0),
        rng.Gaussian(0.0, 1.0)});
    train.labels.push_back(label);
  }
  train.groups.assign(train.labels.size(), -1);

  RandomForestOptions options;
  options.num_trees = 12;
  options.num_threads = 2;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());

  std::stringstream stream;
  ASSERT_TRUE(forest.Save(stream).ok());
  RandomForest loaded(options);
  ASSERT_TRUE(loaded.Load(stream).ok());

  // The rebuilt flat layout is identical array for array, and both the
  // original and the loaded forest agree with the original's tree-summed
  // reference on every probe row, at every thread count.
  ASSERT_TRUE(loaded.flat_forest() == forest.flat_forest());
  Matrix probe(0, 3);
  for (int i = 0; i < 200; ++i) {
    probe.append_row(std::vector<double>{rng.Gaussian(0.0, 2.0),
                                         rng.Gaussian(0.0, 2.0),
                                         rng.Gaussian(0.0, 2.0)});
  }
  const std::vector<std::vector<double>> reference =
      TreeOracleProbaAll(forest, probe);
  for (const int threads : {1, 2, 8}) {
    forest.set_num_threads(threads);
    loaded.set_num_threads(threads);
    ExpectForestMatches(forest, probe, reference);
    ExpectForestMatches(loaded, probe, reference);
  }
}

// One hand-built tree: `row[feature] <= threshold ? left : right`.
struct Stump {
  int feature = 0;
  double threshold = 0.0;
  std::vector<double> left;
  std::vector<double> right;
};

// A stump whose two leaves are equal: the same leaf for every row.
Stump Leaf(std::vector<double> distribution) {
  return Stump{0, 0.0, distribution, distribution};
}

// Loads a forest of stumps through RandomForest::Load ("forest v1").
RandomForest ForestOfStumps(int num_classes, int num_features,
                            const std::vector<Stump>& stumps) {
  std::ostringstream text;
  text.precision(17);
  auto leaf = [&](const std::vector<double>& distribution) {
    text << "-1 0 -1 -1 0 1 1 " << distribution.size();
    for (const double p : distribution) text << ' ' << p;
    text << '\n';
  };
  text << "forest v1 " << num_classes << ' ' << stumps.size() << '\n';
  for (const Stump& stump : stumps) {
    text << "tree v1 " << num_classes << ' ' << num_features << " 3\n"
         << stump.feature << ' ' << stump.threshold << " 1 2 0 2 0 "
         << num_classes;
    for (int c = 0; c < num_classes; ++c) text << " 0";
    text << '\n';
    leaf(stump.left);
    leaf(stump.right);
  }
  RandomForest forest;
  std::istringstream in(text.str());
  const Status status = forest.Load(in);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return forest;
}

Matrix Rows(const std::vector<std::vector<double>>& rows) {
  Matrix features(0, rows.front().size());
  for (const std::vector<double>& row : rows) features.append_row(row);
  return features;
}

TEST(ForestVoteTest, MarginEqualToTreesLeftBeforeATieKeepsWalking) {
  // Three trees vote class 1, then three vote class 0. After four trees
  // the sums are {1, 3}: the margin 2 equals the two trees left, and
  // after five it is {2, 3} with one left. The tail ends in a tie {3, 3},
  // which the argmax breaks towards class 0, so an exit on `>=` would
  // answer class 1.
  const std::vector<double> zero = {1.0, 0.0};
  const std::vector<double> one = {0.0, 1.0};
  RandomForest forest = ForestOfStumps(
      2, 1, {Leaf(one), Leaf(one), Leaf(one), Leaf(zero), Leaf(zero),
             Leaf(zero)});
  const Matrix features = Rows({{0.0}, {1.0}, {-1.0}});
  for (size_t i = 0; i < features.rows(); ++i) {
    ASSERT_EQ(ArgMax(TreeOracleProba(forest, features.row(i))), 0u);
    EXPECT_EQ(OracleSettlePoint(forest, features.row(i)), 6u);
  }
  ExpectAgreementAtAllThreadCounts(forest, features);
}

TEST(ForestVoteTest, LeafEntriesAboveOneTurnTheExitOff) {
  // DecisionTree::Load accepts leaf entries up to 1 + 1e-9, which breaks
  // the exit's premise that a tree adds at most 1 to a class. After two
  // of three trees class 1 leads 2 to 1 - 5e-10, past the one tree left
  // by 5e-10, yet the last tree adds 1 + 8e-10 to class 0 and class 0
  // wins 2 + 3e-10 to 2. Such a forest must walk every tree.
  RandomForest forest =
      ForestOfStumps(2, 1,
                     {Leaf({0.5, 1.0}), Leaf({0.4999999995, 1.0}),
                      Leaf({1.0000000008, 0.0})});
  const Matrix features = Rows({{0.0}, {1.0}, {2.0}});
  std::vector<int> classes;
  const uint64_t before = TreesWalked();
  ASSERT_TRUE(
      forest.TryPredictAll(features, nullptr, "forest_predict", &classes)
          .ok());
  EXPECT_EQ(TreesWalked() - before, 3 * features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    ASSERT_EQ(ArgMax(TreeOracleProba(forest, features.row(i))), 0u);
    EXPECT_EQ(classes[i], 0) << "row " << i;
  }
}

TEST(ForestVoteTest, PairedLanesSettleAtDifferentTrees) {
  // Tree t votes class 0 when x <= t, else class 1 (t = 0..9). By hand:
  // x = -1 and x >= 9.5 are unanimous and settle after 6 trees; x = 7.5
  // leads 6-0 after 6; x = 2.5 votes 1,1,1 then 0s and settles after 9
  // (6-3 with one left); x = 4.5 ends in a 5-5 tie and walks all 10.
  // NaN compares false and goes right: class 1, like +Inf.
  std::vector<Stump> stumps;
  for (int t = 0; t < 10; ++t) {
    stumps.push_back(Stump{0, static_cast<double>(t), {1.0, 0.0}, {0.0, 1.0}});
  }
  RandomForest forest = ForestOfStumps(2, 1, stumps);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {-1.0, 2.5, 2.5, -1.0, 4.5, 9.5, 7.5, kNan,
                                  2.5,  kInf, -kInf};
  const std::vector<size_t> settle = {6, 9, 9, 6, 10, 6, 6, 6, 9, 6, 6};
  const std::vector<int> classes = {0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0};
  std::vector<std::vector<double>> rows;
  for (const double x : xs) rows.push_back({x});
  const Matrix features = Rows(rows);
  for (size_t i = 0; i < xs.size(); ++i) {
    SCOPED_TRACE("x=" + std::to_string(xs[i]));
    EXPECT_EQ(OracleSettlePoint(forest, features.row(i)), settle[i]);
    EXPECT_EQ(ArgMax(TreeOracleProba(forest, features.row(i))),
              static_cast<size_t>(classes[i]));
  }
  ExpectAgreementAtAllThreadCounts(forest, features);

  // Alone, each row walks exactly what it walked beside its partner.
  forest.set_num_threads(1);
  for (size_t i = 0; i < xs.size(); ++i) {
    std::vector<int> alone;
    const uint64_t before = TreesWalked();
    ASSERT_TRUE(forest
                    .TryPredictAll(Rows({{xs[i]}}), nullptr, "forest_predict",
                                   &alone)
                    .ok());
    EXPECT_EQ(TreesWalked() - before, settle[i]) << "row " << i;
    EXPECT_EQ(alone[0], classes[i]) << "row " << i;
  }
}

TEST(ForestVoteTest, FractionalNearTiesFromMixedLeaves) {
  // Random stump forests whose leaves are mixed distributions of small
  // fractions (c / d with d in 2..10), so exact ties are frequent and
  // their rounding decides the argmax. Row counts are odd and even
  // around the pair and chunk boundaries; features include NaN and Inf.
  Rng rng(4242);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  size_t near_ties = 0;
  for (int round = 0; round < 24; ++round) {
    const int k = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    const int num_trees = 1 + static_cast<int>(rng.UniformInt(uint64_t{40}));
    const int num_features = 3;
    auto fraction_leaf = [&] {
      const uint64_t d = 2 + rng.UniformInt(uint64_t{9});
      std::vector<uint64_t> parts(static_cast<size_t>(k), 0);
      for (uint64_t u = 0; u < d; ++u) {
        ++parts[rng.UniformInt(static_cast<uint64_t>(k))];
      }
      std::vector<double> leaf;
      for (const uint64_t part : parts) {
        leaf.push_back(static_cast<double>(part) / static_cast<double>(d));
      }
      return leaf;
    };
    std::vector<Stump> stumps;
    for (int t = 0; t < num_trees; ++t) {
      stumps.push_back(Stump{
          static_cast<int>(rng.UniformInt(uint64_t{3})),
          rng.Gaussian(0.0, 1.0), fraction_leaf(), fraction_leaf()});
    }
    RandomForest forest = ForestOfStumps(k, num_features, stumps);
    const size_t num_rows =
        std::vector<size_t>{1, 2, 3, 63, 64, 65, 127, 130}[round % 8];
    Matrix features(0, num_features);
    for (size_t i = 0; i < num_rows; ++i) {
      std::vector<double> row(num_features);
      for (double& v : row) {
        switch (rng.UniformInt(uint64_t{10})) {
          case 0: v = kNan; break;
          case 1: v = kInf; break;
          case 2: v = -kInf; break;
          default: v = rng.Gaussian(0.0, 1.0); break;
        }
      }
      features.append_row(row);
      std::vector<double> proba = TreeOracleProba(forest, row);
      std::sort(proba.begin(), proba.end());
      if (proba[proba.size() - 1] - proba[proba.size() - 2] < 1e-12) {
        ++near_ties;
      }
    }
    SCOPED_TRACE("round=" + std::to_string(round) + " k=" +
                 std::to_string(k) + " trees=" + std::to_string(num_trees));
    ExpectAgreementAtAllThreadCounts(forest, features);
  }
  EXPECT_GT(near_ties, 0u);
}

}  // namespace
}  // namespace strudel::ml
