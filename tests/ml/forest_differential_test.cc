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

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "datagen/corpus.h"
#include "ml/matrix.h"
#include "ml/random_forest.h"
#include "strudel/strudel_line.h"
#include "testing/forest_oracle.h"

namespace strudel::ml {
namespace {

using ::strudel::testing::TreeOracleProbaAll;

// Every predict entry point of the forest — batched probabilities,
// batched classes and per-row probabilities — against the reference.
void ExpectForestMatches(const RandomForest& forest, const Matrix& features,
                         const std::vector<std::vector<double>>& reference) {
  std::vector<std::vector<double>> probas;
  const Status status =
      forest.TryPredictProbaAll(features, nullptr, "forest_predict", &probas);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(probas.size(), reference.size());
  std::vector<int> classes;
  const Status class_status =
      forest.TryPredictAll(features, nullptr, "forest_predict", &classes);
  ASSERT_TRUE(class_status.ok()) << class_status.ToString();
  ASSERT_EQ(classes.size(), reference.size());
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

}  // namespace
}  // namespace strudel::ml
