// End-to-end integration tests: the full pipeline of Figure 2 — raw text
// file -> dialect detection -> parsing -> line classification -> cell
// classification — plus the cross-validation harness over a mixed corpus.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "csv/crop.h"
#include "csv/dialect_detector.h"
#include "csv/reader.h"
#include "csv/writer.h"
#include "datagen/annotated_io.h"
#include "datagen/corpus.h"
#include "eval/algos.h"
#include "eval/report.h"
#include "strudel/model_io.h"
#include "strudel/segmentation.h"
#include "strudel/strudel_cell.h"
#include "testing/test_tables.h"

namespace strudel {
namespace {

TEST(IntegrationTest, FullPipelineFromRawTextToCellClasses) {
  // Train on a generated corpus.
  datagen::DatasetProfile profile =
      datagen::ScaledProfile(datagen::SausProfile(), 0.06, 0.4);
  std::vector<AnnotatedFile> corpus = datagen::GenerateCorpus(profile, 81);
  StrudelCellOptions options;
  options.forest.num_trees = 12;
  options.line.forest.num_trees = 12;
  options.line_cross_fit_folds = 2;
  StrudelCell model(options);
  ASSERT_TRUE(model.Fit(corpus).ok());

  // Serialise a held-out style file to raw text with a non-default
  // dialect, then run the Figure 2 pipeline.
  AnnotatedFile file = testing::Figure1File();
  csv::Dialect dialect{';', '"', '\0'};
  std::string text = csv::WriteTable(file.table, dialect);

  auto detected = csv::DetectDialect(text);
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(detected->delimiter, ';');

  csv::ReaderOptions reader_options;
  reader_options.dialect = *detected;
  auto table = csv::ReadTable(text, reader_options);
  ASSERT_TRUE(table.ok());
  csv::Table cropped = csv::CropMargins(*table);
  EXPECT_EQ(cropped.num_rows(), file.table.num_rows());

  CellPrediction prediction = model.Predict(cropped);
  // The dominant structure should be recovered: most data cells
  // classified as data.
  long long data_correct = 0, data_total = 0;
  for (int r = 4; r <= 6; ++r) {
    for (int c = 1; c <= 3; ++c) {
      ++data_total;
      if (prediction.classes[r][c] == static_cast<int>(ElementClass::kData)) {
        ++data_correct;
      }
    }
  }
  EXPECT_GE(data_correct, data_total - 2);
}

TEST(IntegrationTest, RoundTripPreservesAnnotatableStructure) {
  datagen::DatasetProfile profile =
      datagen::ScaledProfile(datagen::CiusProfile(), 0.03, 0.3);
  std::vector<AnnotatedFile> corpus = datagen::GenerateCorpus(profile, 82);
  for (const AnnotatedFile& file : corpus) {
    std::string text = csv::WriteTable(file.table);
    auto dialect = csv::DetectDialect(text);
    ASSERT_TRUE(dialect.ok());
    csv::ReaderOptions options;
    options.dialect = *dialect;
    auto parsed = csv::ReadTable(text, options);
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed->num_rows(), file.table.num_rows());
    for (int r = 0; r < file.table.num_rows(); ++r) {
      for (int c = 0; c < file.table.num_cols(); ++c) {
        EXPECT_EQ(parsed->cell(r, c), file.table.cell(r, c));
      }
    }
  }
}

TEST(IntegrationTest, CvHarnessRanksStrudelAboveLineBaselineOnCells) {
  datagen::DatasetProfile profile =
      datagen::ScaledProfile(datagen::SausProfile(), 0.07, 0.4);
  std::vector<AnnotatedFile> corpus = datagen::GenerateCorpus(profile, 83);

  eval::StrudelCellAlgo::Options cell_options;
  cell_options.model.forest.num_trees = 12;
  cell_options.model.line.forest.num_trees = 12;
  auto strudel_cell = std::make_shared<eval::StrudelCellAlgo>(cell_options);

  eval::StrudelLineAlgo::Options line_options;
  line_options.model.forest.num_trees = 12;
  auto line_cell = std::make_shared<eval::LineCellAlgo>(line_options);

  eval::CvOptions cv;
  cv.folds = 4;
  cv.repetitions = 1;
  auto results = eval::RunCellCv(corpus, {strudel_cell, line_cell}, cv);
  ASSERT_EQ(results.size(), 2u);
  // The paper's central cell-classification claim: Strudel^C macro-F1
  // exceeds the Line^C baseline (Table 6 bottom).
  EXPECT_GT(results[0].report.macro_f1, results[1].report.macro_f1);
}

TEST(IntegrationTest, ExtensionsComposeIntoOnePipeline) {
  // Corpus -> disk -> reload -> train -> persist model -> reload model ->
  // classify -> repair -> segment -> extract. Every extension in one
  // flow.
  const std::string dir = ::testing::TempDir() + "/integration_ext";
  std::filesystem::remove_all(dir);
  datagen::DatasetProfile profile =
      datagen::ScaledProfile(datagen::SausProfile(), 0.05, 0.4);
  ASSERT_TRUE(datagen::SaveAnnotatedCorpus(
                  datagen::GenerateCorpus(profile, 86), dir)
                  .ok());
  auto corpus = datagen::LoadAnnotatedCorpus(dir);
  ASSERT_TRUE(corpus.ok());

  StrudelCellOptions options;
  options.forest.num_trees = 10;
  options.line.forest.num_trees = 10;
  options.line_cross_fit_folds = 0;
  StrudelCell trained(options);
  ASSERT_TRUE(trained.Fit(*corpus).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveModel(trained, stream).ok());
  auto model = LoadCellModel(stream);
  ASSERT_TRUE(model.ok());

  const AnnotatedFile& file = (*corpus)[0];
  CellPrediction prediction = model->Predict(file.table);
  FileSegmentation segmentation =
      SegmentFile(file.table, prediction.line_prediction.classes);
  auto tables = ExtractRelationalTables(file.table, segmentation);
  ASSERT_FALSE(tables.empty());
  // The extracted body must be a subset of the file's data lines.
  long long data_lines = 0;
  for (int label : file.annotation.line_labels) {
    if (label == static_cast<int>(ElementClass::kData)) ++data_lines;
  }
  long long extracted_rows = 0;
  for (const auto& table : tables) {
    extracted_rows += static_cast<long long>(table.rows.size());
  }
  EXPECT_GT(extracted_rows, 0);
  EXPECT_LE(extracted_rows, data_lines + 4);  // small slack for misclass
}

TEST(IntegrationTest, TrainTestAcrossDatasets) {
  // Miniature Table 7 protocol: train on one dataset family, test on an
  // unseen one.
  auto train = datagen::GenerateCorpus(
      datagen::ScaledProfile(datagen::SausProfile(), 0.05, 0.4), 84);
  auto test = datagen::GenerateCorpus(
      datagen::ScaledProfile(datagen::TroyProfile(), 0.04, 0.8), 85);
  eval::StrudelLineAlgo::Options options;
  options.model.forest.num_trees = 15;
  eval::StrudelLineAlgo algo(options);
  eval::EvalResult result = eval::TrainTestLine(train, test, algo);
  // Data lines must transfer across domains.
  const int kData = static_cast<int>(ElementClass::kData);
  EXPECT_GT(result.report.per_class_f1[kData], 0.8);
  // Derived lines are the documented out-of-domain weakness.
  const int kDerived = static_cast<int>(ElementClass::kDerived);
  EXPECT_LT(result.report.per_class_f1[kDerived],
            result.report.per_class_f1[kData]);
}

}  // namespace
}  // namespace strudel
