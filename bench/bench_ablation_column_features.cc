// Extension ablation: column classification (paper future work iii —
// "whether column classification can help boost the classification
// quality"). Compares Strudel^C with and without the 6-dim
// ColumnClassProbability feature block, plus the standalone column
// classifier's own quality.

#include <cstdio>

#include "bench_util.h"
#include "strudel/strudel_column.h"

using namespace strudel;

int main(int argc, char** argv) {
  auto config = bench::ParseConfig(argc, argv);
  bench::PrintConfig(
      "Ablation: column classification (paper future work iii)", config);

  for (const char* dataset : {"CIUS", "DeEx"}) {
    auto corpus = bench::MakeCorpus(config, dataset);

    // Standalone column classifier quality (grouped train/test split).
    {
      const size_t test_count = std::max<size_t>(1, corpus.size() / 5);
      std::vector<AnnotatedFile> train(corpus.begin(),
                                       corpus.end() - test_count);
      std::vector<AnnotatedFile> test(corpus.end() - test_count,
                                      corpus.end());
      StrudelColumnOptions options;
      options.forest.num_trees = config.trees;
      options.forest.seed = config.seed;
      StrudelColumn column_model(options);
      if (column_model.Fit(train).ok()) {
        ml::ConfusionMatrix confusion(kNumElementClasses);
        for (const AnnotatedFile& file : test) {
          const std::vector<int> actual = ColumnLabelsFromCells(
              file.annotation.cell_labels, file.table.num_cols());
          const ColumnPrediction prediction =
              column_model.Predict(file.table);
          for (size_t c = 0; c < actual.size(); ++c) {
            if (actual[c] >= 0 && prediction.classes[c] >= 0) {
              confusion.Add(actual[c], prediction.classes[c]);
            }
          }
        }
        std::printf("%s standalone column classifier: accuracy %.3f, "
                    "macro-F1 %.3f (%lld columns)\n",
                    dataset, confusion.Accuracy(), confusion.MacroF1(),
                    confusion.total());
      }
    }

    // Strudel^C with / without the column-probability block.
    eval::StrudelCellAlgo::Options base = bench::CellAlgoOptions(config);
    base.model.line_cross_fit_folds = 2;
    auto plain = std::make_shared<eval::StrudelCellAlgo>(base);
    eval::StrudelCellAlgo::Options with_columns = base;
    with_columns.display_name = "Strudel^C+columns";
    with_columns.model.use_column_probabilities = true;
    auto extended = std::make_shared<eval::StrudelCellAlgo>(with_columns);

    eval::CvOptions cv = bench::MakeCv(config);
    cv.folds = std::min(cv.folds, 4);  // full pipeline per fold: keep lean
    auto results = eval::RunCellCv(corpus, {plain, extended}, cv);
    std::printf("%s\n", eval::FormatResultsTable(dataset, results,
                                                 "# cells")
                            .c_str());
  }
  std::printf(
      "extension beyond the paper: quantifies future-work direction iii\n");
  return 0;
}
