#include "eval/algos.h"

#include <gtest/gtest.h>

#include "datagen/corpus.h"
#include "ml/naive_bayes.h"

namespace strudel::eval {
namespace {

std::vector<AnnotatedFile> SmallCorpus(uint64_t seed = 71) {
  datagen::DatasetProfile profile =
      datagen::ScaledProfile(datagen::SausProfile(), 0.05, 0.35);
  return datagen::GenerateCorpus(profile, seed);
}

std::vector<size_t> AllButLast(size_t n) {
  std::vector<size_t> out;
  for (size_t i = 0; i + 1 < n; ++i) out.push_back(i);
  return out;
}

StrudelLineAlgo::Options FastLine() {
  StrudelLineAlgo::Options options;
  options.model.forest.num_trees = 12;
  options.model.forest.num_threads = 2;
  return options;
}

StrudelCellAlgo::Options FastCell() {
  StrudelCellAlgo::Options options;
  options.model.forest.num_trees = 10;
  options.model.forest.num_threads = 2;
  options.model.line.forest.num_trees = 10;
  options.model.line.forest.num_threads = 2;
  return options;
}

TEST(StrudelLineAlgoTest, FitPredictHeldOutFile) {
  auto corpus = SmallCorpus();
  StrudelLineAlgo algo(FastLine());
  ASSERT_TRUE(algo.Fit(corpus, AllButLast(corpus.size())).ok());
  const size_t held_out = corpus.size() - 1;
  std::vector<int> predicted = algo.Predict(corpus, held_out);
  ASSERT_EQ(predicted.size(),
            static_cast<size_t>(corpus[held_out].table.num_rows()));
  long long correct = 0, total = 0;
  for (size_t r = 0; r < predicted.size(); ++r) {
    const int actual = corpus[held_out].annotation.line_labels[r];
    if (actual < 0) continue;
    ++total;
    if (predicted[r] == actual) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.6);
}

TEST(StrudelLineAlgoTest, EmptyTrainingFoldRejected) {
  auto corpus = SmallCorpus(73);
  StrudelLineAlgo algo(FastLine());
  EXPECT_FALSE(algo.Fit(corpus, {}).ok());
}

TEST(StrudelCellAlgoTest, FitPredictGrid) {
  auto corpus = SmallCorpus(74);
  StrudelCellAlgo algo(FastCell());
  ASSERT_TRUE(algo.Fit(corpus, AllButLast(corpus.size())).ok());
  const size_t held_out = corpus.size() - 1;
  auto grid = algo.Predict(corpus, held_out);
  const auto& table = corpus[held_out].table;
  ASSERT_EQ(grid.size(), static_cast<size_t>(table.num_rows()));
  long long correct = 0, total = 0;
  for (int r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_cols(); ++c) {
      const int actual = corpus[held_out].annotation.cell_labels[r][c];
      if (actual < 0) {
        EXPECT_EQ(grid[r][c], kEmptyLabel);
        continue;
      }
      ++total;
      if (grid[r][c] == actual) ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.6);
}

TEST(LineCellAlgoTest, PredictionsConstantPerLine) {
  auto corpus = SmallCorpus(76);
  LineCellAlgo algo(FastLine());
  ASSERT_TRUE(algo.Fit(corpus, AllButLast(corpus.size())).ok());
  auto grid = algo.Predict(corpus, corpus.size() - 1);
  for (const auto& row : grid) {
    int seen = kEmptyLabel;
    for (int label : row) {
      if (label == kEmptyLabel) continue;
      if (seen == kEmptyLabel) seen = label;
      EXPECT_EQ(label, seen);
    }
  }
}

TEST(CrfPytheasRnnAlgosTest, AllRunThroughHarnessInterface) {
  auto corpus = SmallCorpus(77);
  const auto train = AllButLast(corpus.size());
  const size_t held_out = corpus.size() - 1;

  baselines::CrfLineOptions crf_options;
  crf_options.crf.epochs = 10;
  CrfLineAlgo crf(crf_options);
  ASSERT_TRUE(crf.Fit(corpus, train).ok());
  EXPECT_EQ(crf.Predict(corpus, held_out).size(),
            static_cast<size_t>(corpus[held_out].table.num_rows()));
  EXPECT_TRUE(crf.predicts_derived());

  PytheasLineAlgo pytheas;
  ASSERT_TRUE(pytheas.Fit(corpus, train).ok());
  EXPECT_EQ(pytheas.Predict(corpus, held_out).size(),
            static_cast<size_t>(corpus[held_out].table.num_rows()));
  EXPECT_FALSE(pytheas.predicts_derived());

  baselines::RnnCellOptions rnn_options;
  rnn_options.embedding_dim = 12;
  rnn_options.mlp.epochs = 5;
  RnnCellAlgo rnn(rnn_options);
  ASSERT_TRUE(rnn.Fit(corpus, train).ok());
  EXPECT_EQ(rnn.Predict(corpus, held_out).size(),
            static_cast<size_t>(corpus[held_out].table.num_rows()));
}

TEST(BackboneLineAlgoTest, BackboneAblationUsesPrototype) {
  auto corpus = SmallCorpus(78);
  BackboneLineAlgo algo("Strudel^L(NB)",
                        std::make_shared<ml::GaussianNaiveBayes>());
  EXPECT_EQ(algo.name(), "Strudel^L(NB)");
  ASSERT_TRUE(algo.Fit(corpus, AllButLast(corpus.size())).ok());
  auto predicted = algo.Predict(corpus, corpus.size() - 1);
  EXPECT_EQ(predicted.size(),
            static_cast<size_t>(corpus.back().table.num_rows()));
}

}  // namespace
}  // namespace strudel::eval
