#include "strudel/strudel_line.h"

#include <gtest/gtest.h>

#include "datagen/corpus.h"
#include "testing/test_tables.h"

namespace strudel {
namespace {

std::vector<AnnotatedFile> SmallCorpus(uint64_t seed = 3) {
  datagen::DatasetProfile profile =
      datagen::ScaledProfile(datagen::SausProfile(), 0.08, 0.5);
  return datagen::GenerateCorpus(profile, seed);
}

StrudelLineOptions FastOptions() {
  StrudelLineOptions options;
  options.forest.num_trees = 15;
  options.forest.num_threads = 2;
  return options;
}

TEST(StrudelLineTest, BuildDatasetSkipsEmptyLines) {
  std::vector<AnnotatedFile> files = {testing::Figure1File()};
  ml::Dataset data = StrudelLine::BuildDataset(files);
  // Figure 1 has 10 lines, 2 of them empty.
  EXPECT_EQ(data.size(), 8u);
  EXPECT_EQ(data.num_classes, kNumElementClasses);
  EXPECT_EQ(data.feature_names.size(), LineFeatureNames().size());
  EXPECT_TRUE(data.Valid());
  for (int group : data.groups) EXPECT_EQ(group, 0);
}

TEST(StrudelLineTest, FitFailsOnEmptyInput) {
  StrudelLine model(FastOptions());
  EXPECT_FALSE(model.Fit(std::vector<AnnotatedFile>{}).ok());
  EXPECT_FALSE(model.fitted());
}

TEST(StrudelLineTest, TrainAndPredictOnCorpus) {
  std::vector<AnnotatedFile> corpus = SmallCorpus();
  StrudelLine model(FastOptions());
  ASSERT_TRUE(model.Fit(corpus).ok());
  EXPECT_TRUE(model.fitted());

  // In-sample predictions should be strongly correct for a forest.
  long long correct = 0, total = 0;
  for (const AnnotatedFile& file : corpus) {
    LinePrediction prediction = model.Predict(file.table);
    ASSERT_EQ(prediction.classes.size(),
              static_cast<size_t>(file.table.num_rows()));
    for (int r = 0; r < file.table.num_rows(); ++r) {
      const int actual = file.annotation.line_labels[r];
      if (actual == kEmptyLabel) {
        EXPECT_EQ(prediction.classes[r], kEmptyLabel);
        continue;
      }
      ++total;
      if (prediction.classes[r] == actual) ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.95);
}

TEST(StrudelLineTest, ProbabilitiesAreDistributions) {
  std::vector<AnnotatedFile> corpus = SmallCorpus();
  StrudelLine model(FastOptions());
  ASSERT_TRUE(model.Fit(corpus).ok());
  LinePrediction prediction = model.Predict(corpus[0].table);
  for (int r = 0; r < corpus[0].table.num_rows(); ++r) {
    const auto& proba = prediction.probabilities[r];
    ASSERT_EQ(proba.size(), static_cast<size_t>(kNumElementClasses));
    double sum = 0.0;
    for (double p : proba) sum += p;
    if (corpus[0].table.row_empty(r)) {
      EXPECT_EQ(sum, 0.0);
    } else {
      EXPECT_NEAR(sum, 1.0, 1e-9);
      EXPECT_EQ(prediction.classes[r],
                static_cast<int>(ArgMax(proba)));
    }
  }
}

TEST(StrudelLineTest, GeneralizesToHeldOutFiles) {
  std::vector<AnnotatedFile> corpus = SmallCorpus(11);
  std::vector<AnnotatedFile> train(corpus.begin(), corpus.end() - 3);
  std::vector<AnnotatedFile> test(corpus.end() - 3, corpus.end());
  StrudelLine model(FastOptions());
  ASSERT_TRUE(model.Fit(train).ok());
  long long correct = 0, total = 0;
  for (const AnnotatedFile& file : test) {
    LinePrediction prediction = model.Predict(file.table);
    for (int r = 0; r < file.table.num_rows(); ++r) {
      const int actual = file.annotation.line_labels[r];
      if (actual == kEmptyLabel) continue;
      ++total;
      if (prediction.classes[r] == actual) ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.8);
}

TEST(StrudelLineTest, PredictOnUnfittedModelIsEmptyLabels) {
  StrudelLine model(FastOptions());
  AnnotatedFile file = testing::Figure1File();
  LinePrediction prediction = model.Predict(file.table);
  for (int label : prediction.classes) EXPECT_EQ(label, kEmptyLabel);
}

TEST(StrudelLineTest, DeterministicGivenSeed) {
  std::vector<AnnotatedFile> corpus = SmallCorpus(13);
  StrudelLine a(FastOptions()), b(FastOptions());
  ASSERT_TRUE(a.Fit(corpus).ok());
  ASSERT_TRUE(b.Fit(corpus).ok());
  EXPECT_EQ(a.Predict(corpus[0].table).classes,
            b.Predict(corpus[0].table).classes);
}

}  // namespace
}  // namespace strudel
