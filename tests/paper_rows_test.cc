// The paper's Strudel rows as a regression test: reruns the Strudel^L rows
// of Table 6 (top) and the Strudel^C rows of Table 6 (bottom) exactly as
// bench_table6_line_classification and bench_table6_cell_classification
// do, and pins each row's confusion matrix, summed over the CV folds, to
// the count. Every F1 those benches print for a Strudel row is computed
// from this matrix, so a change that moves any per-line or per-cell class
// of the production classes on the paper corpora fails here.
//
// The runs use a default-constructed BenchConfig (the quick protocol) and
// never ParseConfig, so no STRUDEL_BENCH_* variable or flag can move
// them. When a change is meant to move the paper numbers, update the
// matrices below and EXPERIMENTS.md together. Run alone with
// `ctest -L paper`.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "bench_util.h"

namespace strudel {
namespace {

// [actual][predicted] in ElementClass order: metadata, header, group,
// data, derived, notes.
using Counts = std::array<std::array<long long, kNumElementClasses>,
                          kNumElementClasses>;

Counts CountsOf(const ml::ConfusionMatrix& confusion) {
  Counts counts{};
  for (int actual = 0; actual < kNumElementClasses; ++actual) {
    for (int predicted = 0; predicted < kNumElementClasses; ++predicted) {
      counts[static_cast<size_t>(actual)][static_cast<size_t>(predicted)] =
          confusion.count(actual, predicted);
    }
  }
  return counts;
}

struct Row {
  const char* dataset;
  Counts counts;
};

TEST(PaperRowsTest, Table6LineStrudelRows) {
  const bench::BenchConfig config;
  const Row rows[] = {
      {"GovUK",
       {{{73, 0, 0, 0, 0, 0},
         {1, 46, 1, 6, 1, 0},
         {2, 0, 39, 2, 2, 0},
         {3, 4, 5, 1689, 0, 0},
         {0, 0, 1, 9, 29, 0},
         {0, 0, 0, 0, 0, 59}}}},
      {"SAUS",
       {{{45, 0, 0, 0, 0, 0},
         {0, 22, 0, 0, 0, 0},
         {0, 0, 20, 0, 0, 0},
         {0, 0, 0, 249, 0, 0},
         {0, 0, 0, 6, 7, 0},
         {0, 0, 0, 0, 0, 52}}}},
      {"CIUS",
       {{{80, 0, 0, 0, 0, 0},
         {0, 38, 0, 1, 0, 0},
         {0, 0, 82, 0, 0, 0},
         {0, 0, 0, 588, 0, 0},
         {0, 0, 0, 3, 27, 0},
         {0, 0, 0, 0, 0, 51}}}},
      {"DeEx",
       {{{160, 0, 0, 12, 0, 1},
         {2, 114, 3, 9, 1, 0},
         {5, 4, 33, 19, 5, 2},
         {8, 9, 1, 2651, 1, 0},
         {0, 0, 1, 23, 57, 1},
         {0, 0, 0, 8, 0, 111}}}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.dataset);
    const auto corpus = bench::MakeCorpus(config, row.dataset);
    auto algo =
        std::make_shared<eval::StrudelLineAlgo>(bench::LineAlgoOptions(config));
    const auto results =
        eval::RunLineCv(corpus, {algo}, bench::MakeCv(config));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(CountsOf(results[0].confusion), row.counts);
  }
}

TEST(PaperRowsTest, Table6CellStrudelRows) {
  const bench::BenchConfig config;
  const Row rows[] = {
      {"SAUS",
       {{{48, 1, 0, 0, 0, 0},
         {0, 113, 0, 0, 0, 0},
         {0, 0, 32, 5, 0, 0},
         {0, 0, 1, 1326, 20, 0},
         {0, 0, 0, 32, 44, 0},
         {0, 0, 0, 0, 0, 52}}}},
      {"CIUS",
       {{{91, 2, 0, 0, 0, 0},
         {0, 227, 0, 0, 0, 0},
         {0, 0, 136, 0, 0, 0},
         {0, 4, 2, 3341, 16, 0},
         {0, 0, 0, 3, 286, 0},
         {0, 0, 0, 0, 0, 51}}}},
      {"DeEx",
       {{{235, 0, 1, 22, 0, 1},
         {2, 645, 3, 28, 4, 0},
         {1, 4, 379, 8, 0, 0},
         {11, 42, 6, 14321, 23, 0},
         {0, 0, 0, 129, 387, 0},
         {0, 0, 0, 2, 0, 158}}}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.dataset);
    const auto corpus = bench::MakeCorpus(config, row.dataset);
    auto algo =
        std::make_shared<eval::StrudelCellAlgo>(bench::CellAlgoOptions(config));
    const auto results =
        eval::RunCellCv(corpus, {algo}, bench::MakeCv(config));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(CountsOf(results[0].confusion), row.counts);
  }
}

}  // namespace
}  // namespace strudel
