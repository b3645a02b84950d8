// Strudel^L — line classification (paper §4).
//
// A multi-class random forest over the Table 1 feature set. The forest's
// probability output doubles as the LineClassProbability feature block of
// Strudel^C (paper §5.4).

#ifndef STRUDEL_STRUDEL_STRUDEL_LINE_H_
#define STRUDEL_STRUDEL_STRUDEL_LINE_H_

#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/execution_budget.h"
#include "common/result.h"
#include "common/status.h"
#include "ml/dataset.h"
#include "ml/normalizer.h"
#include "ml/random_forest.h"
#include "strudel/classes.h"
#include "strudel/line_features.h"

namespace strudel {

struct StrudelLineOptions {
  LineFeatureOptions features;
  ml::RandomForestOptions forest;
  /// Optional execution budget for Fit: featurisation and forest training
  /// charge against it and abort with its sticky Status once exhausted.
  std::shared_ptr<ExecutionBudget> budget;
  /// Workers for featurisation and, once fitted, the forest's batched
  /// inference (0 = hardware concurrency, 1 = exact serial path).
  /// Runtime-only — never serialised with the model — and results are
  /// identical at any value. Training uses `forest.num_threads`;
  /// set_num_threads() sets both.
  int num_threads = 0;
};

/// Per-line predictions for one file. Empty lines carry kEmptyLabel and an
/// all-zero probability vector.
struct LinePrediction {
  std::vector<int> classes;
  std::vector<std::vector<double>> probabilities;
};

class StrudelLine {
 public:
  explicit StrudelLine(StrudelLineOptions options = {});

  /// Builds the supervised line dataset for `files`: one sample per
  /// non-empty line, group id = file index, labels from the annotations.
  static ml::Dataset BuildDataset(
      const std::vector<const AnnotatedFile*>& files,
      const LineFeatureOptions& options = {});
  static ml::Dataset BuildDataset(const std::vector<AnnotatedFile>& files,
                                  const LineFeatureOptions& options = {});
  /// Budgeted variant; featurisation charges against `budget` (nullable)
  /// and runs on `num_threads` workers (results identical at any value).
  static Result<ml::Dataset> BuildDataset(
      const std::vector<const AnnotatedFile*>& files,
      const LineFeatureOptions& options, ExecutionBudget* budget,
      int num_threads = 1);

  /// Trains on annotated files.
  Status Fit(const std::vector<const AnnotatedFile*>& files);
  Status Fit(const std::vector<AnnotatedFile>& files);

  /// Classifies every line of a table.
  LinePrediction Predict(const csv::Table& table) const;

  /// Budget-aware prediction: featurisation and per-line inference run
  /// under `budget` (may be null) and return its sticky Status once
  /// exhausted, instead of silently degrading to empty predictions.
  Result<LinePrediction> TryPredict(const csv::Table& table,
                                    ExecutionBudget* budget = nullptr) const;

  /// Non-finite feature columns quarantined (zeroed) by the last Fit.
  const ml::NonFiniteReport& fit_quarantine() const {
    return fit_quarantine_;
  }

  bool fitted() const { return model_ != nullptr; }
  const ml::RandomForest& model() const { return *model_; }
  const StrudelLineOptions& options() const { return options_; }

  /// Sets the worker count for featurisation, inference and the forest
  /// (0 = hardware concurrency, 1 = serial), the live forest of a fitted
  /// or loaded model included. Intended for models restored via LoadFrom,
  /// whose options predate the caller's runtime choice.
  void set_num_threads(int num_threads);

  /// Serialises the trained model / restores it. See strudel/model_io.h
  /// for file-level helpers.
  Status SaveTo(std::ostream& out) const;
  Status LoadFrom(std::istream& in);

 private:
  StrudelLineOptions options_;
  std::unique_ptr<ml::RandomForest> model_;
  ml::MinMaxNormalizer normalizer_;
  ml::NonFiniteReport fit_quarantine_;
};

}  // namespace strudel

#endif  // STRUDEL_STRUDEL_STRUDEL_LINE_H_
