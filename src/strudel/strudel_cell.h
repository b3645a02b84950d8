// Strudel^C — cell classification (paper §5).
//
// A multi-class random forest over the Table 2 feature set. Strudel^L
// "is executed beforehand to obtain the line prediction probabilities that
// are then transformed into the features of Strudel^C" (§5). To keep the
// training-time probability features honest, the line model is
// *cross-fitted* inside the training files: each training file's line
// probabilities come from a line model that did not see that file
// (configurable; 0 folds = in-sample probabilities, faster but optimistic).

#ifndef STRUDEL_STRUDEL_STRUDEL_CELL_H_
#define STRUDEL_STRUDEL_STRUDEL_CELL_H_

#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/status.h"
#include "ml/normalizer.h"
#include "ml/random_forest.h"
#include "strudel/cell_features.h"
#include "strudel/strudel_column.h"
#include "strudel/strudel_line.h"

namespace strudel {

struct StrudelCellOptions {
  CellFeatureOptions features;
  ml::RandomForestOptions forest;
  /// Configuration of the internal Strudel^L stage.
  StrudelLineOptions line;
  /// Folds for cross-fitted line probabilities at training time; 0 trains
  /// the line model once and uses in-sample probabilities.
  int line_cross_fit_folds = 3;
  uint64_t seed = 42;
  /// Extension (paper future work iii): train a column classifier and
  /// feed its per-column probabilities as additional cell features. Not
  /// serialisable via model_io.
  bool use_column_probabilities = false;
  /// Optional execution budget for Fit: both stages' featurisation and
  /// forest training charge against it and abort with its sticky Status
  /// once exhausted.
  std::shared_ptr<ExecutionBudget> budget;
  /// Workers for cell featurisation and, once fitted, the forest's
  /// batched inference (0 = hardware concurrency, 1 = exact serial path).
  /// Runtime-only — never serialised with the model — and results are
  /// identical at any value. Training uses `forest.num_threads`, and the
  /// line stage carries its own counts; set_num_threads() sets all of
  /// them.
  int num_threads = 0;
};

/// Per-cell predictions for one file: a label grid (kEmptyLabel on empty
/// cells) plus the line-stage prediction that fed the features.
struct CellPrediction {
  std::vector<std::vector<int>> classes;
  LinePrediction line_prediction;
};

class StrudelCell {
 public:
  explicit StrudelCell(StrudelCellOptions options = {});

  /// Builds the supervised cell dataset for `files` given per-file line
  /// probability vectors (files[i] line r -> probabilities[i][r]).
  static ml::Dataset BuildDataset(
      const std::vector<const AnnotatedFile*>& files,
      const std::vector<std::vector<std::vector<double>>>& line_probabilities,
      const CellFeatureOptions& options = {});
  /// Full variant with per-file column probabilities (extension).
  static ml::Dataset BuildDataset(
      const std::vector<const AnnotatedFile*>& files,
      const std::vector<std::vector<std::vector<double>>>& line_probabilities,
      const std::vector<std::vector<std::vector<double>>>&
          column_probabilities,
      const CellFeatureOptions& options = {});
  static ml::Dataset BuildDataset(
      const std::vector<AnnotatedFile>& files,
      const std::vector<std::vector<std::vector<double>>>& line_probabilities,
      const CellFeatureOptions& options = {});
  /// Budgeted variant; featurisation charges against `budget` (nullable)
  /// and runs on `num_threads` workers (results identical at any value).
  static Result<ml::Dataset> BuildDataset(
      const std::vector<const AnnotatedFile*>& files,
      const std::vector<std::vector<std::vector<double>>>& line_probabilities,
      const std::vector<std::vector<std::vector<double>>>&
          column_probabilities,
      const CellFeatureOptions& options, ExecutionBudget* budget,
      int num_threads = 1);

  /// Trains the full two-stage pipeline on annotated files.
  Status Fit(const std::vector<const AnnotatedFile*>& files);
  Status Fit(const std::vector<AnnotatedFile>& files);

  /// Classifies every cell of a table (runs the line stage internally).
  CellPrediction Predict(const csv::Table& table) const;

  /// Budget-aware prediction: both stages run under `budget` (may be
  /// null) and return its sticky Status once exhausted, instead of
  /// silently degrading to empty predictions.
  Result<CellPrediction> TryPredict(const csv::Table& table,
                                    ExecutionBudget* budget = nullptr) const;

  /// Non-finite cell-feature columns quarantined (zeroed) by the last
  /// Fit; the line stage keeps its own report.
  const ml::NonFiniteReport& fit_quarantine() const {
    return fit_quarantine_;
  }

  bool fitted() const { return model_ != nullptr; }
  const StrudelLine& line_model() const { return line_model_; }
  const ml::RandomForest& model() const { return *model_; }
  const StrudelCellOptions& options() const { return options_; }

  /// Sets the worker count for both stages' featurisation, inference and
  /// forests (0 = hardware concurrency, 1 = serial), the live forests of
  /// a fitted or loaded model included. Intended for models restored via
  /// LoadFrom, whose options predate the caller's runtime choice.
  void set_num_threads(int num_threads);

  /// Serialises the trained two-stage model / restores it. See
  /// strudel/model_io.h for file-level helpers.
  Status SaveTo(std::ostream& out) const;
  Status LoadFrom(std::istream& in);

  const StrudelColumn& column_model() const { return column_model_; }

 private:
  std::vector<std::vector<double>> ColumnProbabilities(
      const csv::Table& table) const;

  StrudelCellOptions options_;
  StrudelLine line_model_;
  StrudelColumn column_model_;
  std::unique_ptr<ml::RandomForest> model_;
  ml::MinMaxNormalizer normalizer_;
  ml::NonFiniteReport fit_quarantine_;
};

}  // namespace strudel

#endif  // STRUDEL_STRUDEL_STRUDEL_CELL_H_
