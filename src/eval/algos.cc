#include "eval/algos.h"

#include <utility>

namespace strudel::eval {

// ---------------------------------------------------------------------------
// StrudelLineAlgo

StrudelLineAlgo::StrudelLineAlgo(Options options)
    : options_(std::move(options)), model_(options_.model) {}

Status StrudelLineAlgo::Fit(const std::vector<AnnotatedFile>& files,
                            const std::vector<size_t>& train_indices) {
  model_ = StrudelLine(options_.model);
  return model_.Fit(FilePointers(files, train_indices));
}

std::vector<int> StrudelLineAlgo::Predict(
    const std::vector<AnnotatedFile>& files, size_t file_index) {
  // Cannot fail without a budget.
  return model_.TryPredict(files[file_index].table).value().classes;
}

// ---------------------------------------------------------------------------
// BackboneLineAlgo

BackboneLineAlgo::BackboneLineAlgo(
    std::string display_name, std::shared_ptr<const ml::Classifier> backbone)
    : display_name_(std::move(display_name)), backbone_(std::move(backbone)) {}

Status BackboneLineAlgo::Fit(const std::vector<AnnotatedFile>& files,
                             const std::vector<size_t>& train_indices) {
  model_.reset();
  STRUDEL_ASSIGN_OR_RETURN(
      ml::Dataset data,
      StrudelLine::BuildDataset(FilePointers(files, train_indices),
                                features_, nullptr));
  if (data.size() == 0) {
    return Status::InvalidArgument("backbone_line_algo: empty training fold");
  }
  normalizer_.FitTransform(data.features);
  model_ = backbone_->CloneUntrained();
  return model_->Fit(data);
}

std::vector<int> BackboneLineAlgo::Predict(
    const std::vector<AnnotatedFile>& files, size_t file_index) {
  const csv::Table& table = files[file_index].table;
  std::vector<int> out(static_cast<size_t>(table.num_rows()), kEmptyLabel);
  if (model_ == nullptr) return out;
  const DerivedDetectionResult detection =
      DetectDerivedCells(table, features_.derived_options);
  // Cannot fail without a budget.
  ml::Matrix features =
      ExtractLineFeatures(table, detection, features_, nullptr).value();
  normalizer_.Transform(features);
  for (int r = 0; r < table.num_rows(); ++r) {
    if (table.row_empty(r)) continue;
    out[static_cast<size_t>(r)] =
        model_->Predict(features.row(static_cast<size_t>(r)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// CrfLineAlgo

CrfLineAlgo::CrfLineAlgo(baselines::CrfLineOptions options)
    : options_(std::move(options)) {}

Status CrfLineAlgo::Fit(const std::vector<AnnotatedFile>& files,
                        const std::vector<size_t>& train_indices) {
  model_ = std::make_unique<baselines::CrfLine>(options_);
  return model_->Fit(FilePointers(files, train_indices));
}

std::vector<int> CrfLineAlgo::Predict(const std::vector<AnnotatedFile>& files,
                                      size_t file_index) {
  if (model_ == nullptr) return {};
  return model_->Predict(files[file_index].table);
}

// ---------------------------------------------------------------------------
// PytheasLineAlgo

PytheasLineAlgo::PytheasLineAlgo(baselines::PytheasOptions options)
    : options_(options) {}

Status PytheasLineAlgo::Fit(const std::vector<AnnotatedFile>& files,
                            const std::vector<size_t>& train_indices) {
  model_ = std::make_unique<baselines::PytheasLine>(options_);
  return model_->Fit(FilePointers(files, train_indices));
}

std::vector<int> PytheasLineAlgo::Predict(
    const std::vector<AnnotatedFile>& files, size_t file_index) {
  if (model_ == nullptr) return {};
  return model_->Predict(files[file_index].table);
}

// ---------------------------------------------------------------------------
// StrudelCellAlgo

StrudelCellAlgo::StrudelCellAlgo(Options options)
    : options_(std::move(options)), model_(options_.model) {}

Status StrudelCellAlgo::Fit(const std::vector<AnnotatedFile>& files,
                            const std::vector<size_t>& train_indices) {
  model_ = StrudelCell(options_.model);
  return model_.Fit(FilePointers(files, train_indices));
}

std::vector<std::vector<int>> StrudelCellAlgo::Predict(
    const std::vector<AnnotatedFile>& files, size_t file_index) {
  // Cannot fail without a budget.
  return model_.TryPredict(files[file_index].table).value().classes;
}

// ---------------------------------------------------------------------------
// LineCellAlgo

LineCellAlgo::LineCellAlgo(StrudelLineAlgo::Options options)
    : line_algo_(std::move(options)) {}

Status LineCellAlgo::Fit(const std::vector<AnnotatedFile>& files,
                         const std::vector<size_t>& train_indices) {
  return line_algo_.Fit(files, train_indices);
}

std::vector<std::vector<int>> LineCellAlgo::Predict(
    const std::vector<AnnotatedFile>& files, size_t file_index) {
  const std::vector<int> line_classes =
      line_algo_.Predict(files, file_index);
  return baselines::LineCell::ExtendToCells(files[file_index].table,
                                            line_classes);
}

// ---------------------------------------------------------------------------
// RnnCellAlgo

RnnCellAlgo::RnnCellAlgo(baselines::RnnCellOptions options)
    : options_(options) {}

Status RnnCellAlgo::Fit(const std::vector<AnnotatedFile>& files,
                        const std::vector<size_t>& train_indices) {
  model_ = std::make_unique<baselines::RnnCell>(options_);
  return model_->Fit(FilePointers(files, train_indices));
}

std::vector<std::vector<int>> RnnCellAlgo::Predict(
    const std::vector<AnnotatedFile>& files, size_t file_index) {
  if (model_ == nullptr) return {};
  return model_->Predict(files[file_index].table);
}

}  // namespace strudel::eval
