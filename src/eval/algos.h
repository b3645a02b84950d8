// Adapters binding the library's classifiers to the experiment harness
// (eval/experiment.h). Each adapter builds a fresh model per CV fold and
// trains it on that fold's files; the Strudel adapters run the production
// StrudelLine / StrudelCell, so every paper table scores the code that
// `strudel train`, `classify`, `batch` and `serve` run. No adapter caches
// features across folds.

#ifndef STRUDEL_EVAL_ALGOS_H_
#define STRUDEL_EVAL_ALGOS_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/crf_line.h"
#include "baselines/line_cell.h"
#include "baselines/pytheas_line.h"
#include "baselines/rnn_cell.h"
#include "eval/experiment.h"
#include "ml/classifier.h"
#include "ml/normalizer.h"
#include "strudel/strudel_cell.h"
#include "strudel/strudel_line.h"

namespace strudel::eval {

/// Strudel^L under CV: a StrudelLine per fold.
class StrudelLineAlgo final : public LineAlgo {
 public:
  struct Options {
    std::string display_name = "Strudel^L";
    StrudelLineOptions model;
  };
  StrudelLineAlgo() : StrudelLineAlgo(Options()) {}
  explicit StrudelLineAlgo(Options options);

  std::string name() const override { return options_.display_name; }
  Status Fit(const std::vector<AnnotatedFile>& files,
             const std::vector<size_t>& train_indices) override;
  std::vector<int> Predict(const std::vector<AnnotatedFile>& files,
                           size_t file_index) override;

 private:
  Options options_;
  StrudelLine model_;
};

/// Strudel^L's feature pipeline with another backbone classifier, for the
/// classifier-choice ablation (§6.1.2): default line features, min-max
/// normalisation, then CloneUntrained() of `backbone` per fold,
/// predicting row by row.
class BackboneLineAlgo final : public LineAlgo {
 public:
  BackboneLineAlgo(std::string display_name,
                   std::shared_ptr<const ml::Classifier> backbone);

  std::string name() const override { return display_name_; }
  Status Fit(const std::vector<AnnotatedFile>& files,
             const std::vector<size_t>& train_indices) override;
  std::vector<int> Predict(const std::vector<AnnotatedFile>& files,
                           size_t file_index) override;

 private:
  std::string display_name_;
  std::shared_ptr<const ml::Classifier> backbone_;
  LineFeatureOptions features_;
  std::unique_ptr<ml::Classifier> model_;
  ml::MinMaxNormalizer normalizer_;
};

/// CRF^L under CV (delegates to baselines::CrfLine per fold).
class CrfLineAlgo final : public LineAlgo {
 public:
  explicit CrfLineAlgo(baselines::CrfLineOptions options = {});
  std::string name() const override { return "CRF^L"; }
  Status Fit(const std::vector<AnnotatedFile>& files,
             const std::vector<size_t>& train_indices) override;
  std::vector<int> Predict(const std::vector<AnnotatedFile>& files,
                           size_t file_index) override;

 private:
  baselines::CrfLineOptions options_;
  std::unique_ptr<baselines::CrfLine> model_;
};

/// Pytheas^L under CV. No derived class (scored accordingly).
class PytheasLineAlgo final : public LineAlgo {
 public:
  explicit PytheasLineAlgo(baselines::PytheasOptions options = {});
  std::string name() const override { return "Pytheas^L"; }
  bool predicts_derived() const override { return false; }
  Status Fit(const std::vector<AnnotatedFile>& files,
             const std::vector<size_t>& train_indices) override;
  std::vector<int> Predict(const std::vector<AnnotatedFile>& files,
                           size_t file_index) override;

 private:
  baselines::PytheasOptions options_;
  std::unique_ptr<baselines::PytheasLine> model_;
};

/// Strudel^C under CV: a StrudelCell per fold, cross-fitting its
/// training-time line probabilities over `model.line_cross_fit_folds`.
class StrudelCellAlgo final : public CellAlgo {
 public:
  struct Options {
    std::string display_name = "Strudel^C";
    StrudelCellOptions model;
  };
  StrudelCellAlgo() : StrudelCellAlgo(Options()) {}
  explicit StrudelCellAlgo(Options options);

  std::string name() const override { return options_.display_name; }
  Status Fit(const std::vector<AnnotatedFile>& files,
             const std::vector<size_t>& train_indices) override;
  std::vector<std::vector<int>> Predict(
      const std::vector<AnnotatedFile>& files, size_t file_index) override;

 private:
  Options options_;
  StrudelCell model_;
};

/// Line^C baseline under CV: extends StrudelLineAlgo predictions to cells.
class LineCellAlgo final : public CellAlgo {
 public:
  LineCellAlgo() : LineCellAlgo(StrudelLineAlgo::Options()) {}
  explicit LineCellAlgo(StrudelLineAlgo::Options options);
  std::string name() const override { return "Line^C"; }
  Status Fit(const std::vector<AnnotatedFile>& files,
             const std::vector<size_t>& train_indices) override;
  std::vector<std::vector<int>> Predict(
      const std::vector<AnnotatedFile>& files, size_t file_index) override;

 private:
  StrudelLineAlgo line_algo_;
};

/// RNN^C surrogate under CV (delegates to baselines::RnnCell per fold).
class RnnCellAlgo final : public CellAlgo {
 public:
  explicit RnnCellAlgo(baselines::RnnCellOptions options = {});
  std::string name() const override { return "RNN^C"; }
  Status Fit(const std::vector<AnnotatedFile>& files,
             const std::vector<size_t>& train_indices) override;
  std::vector<std::vector<int>> Predict(
      const std::vector<AnnotatedFile>& files, size_t file_index) override;

 private:
  baselines::RnnCellOptions options_;
  std::unique_ptr<baselines::RnnCell> model_;
};

}  // namespace strudel::eval

#endif  // STRUDEL_EVAL_ALGOS_H_
