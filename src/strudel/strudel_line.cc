#include "strudel/strudel_line.h"

#include <sstream>
#include <string>
#include <utility>

#include "common/trace.h"
#include "strudel/options_io.h"
#include "strudel/section_io.h"

namespace strudel {

StrudelLine::StrudelLine(StrudelLineOptions options)
    : options_(std::move(options)) {}

Result<ml::Dataset> StrudelLine::BuildDataset(
    const std::vector<const AnnotatedFile*>& files,
    const LineFeatureOptions& options, ExecutionBudget* budget,
    int num_threads) {
  ml::Dataset data;
  data.num_classes = kNumElementClasses;
  data.feature_names = LineFeatureNames(options);
  for (size_t file_idx = 0; file_idx < files.size(); ++file_idx) {
    const AnnotatedFile& file = *files[file_idx];
    DerivedDetectionResult detection =
        DetectDerivedCells(file.table, options.derived_options);
    STRUDEL_ASSIGN_OR_RETURN(
        ml::Matrix features,
        ExtractLineFeatures(file.table, detection, options, budget,
                            num_threads));
    for (int r = 0; r < file.table.num_rows(); ++r) {
      const int label = file.annotation.line_labels[static_cast<size_t>(r)];
      if (label == kEmptyLabel) continue;  // empty lines carry no class
      data.features.append_row(features.row(static_cast<size_t>(r)));
      data.labels.push_back(label);
      data.groups.push_back(static_cast<int>(file_idx));
    }
  }
  return data;
}

ml::Dataset StrudelLine::BuildDataset(
    const std::vector<const AnnotatedFile*>& files,
    const LineFeatureOptions& options) {
  // Cannot fail without a budget.
  return std::move(BuildDataset(files, options, nullptr)).value();
}

ml::Dataset StrudelLine::BuildDataset(const std::vector<AnnotatedFile>& files,
                                      const LineFeatureOptions& options) {
  return BuildDataset(FilePointers(files), options);
}

Status StrudelLine::Fit(const std::vector<AnnotatedFile>& files) {
  return Fit(FilePointers(files));
}

Status StrudelLine::Fit(const std::vector<const AnnotatedFile*>& files) {
  STRUDEL_TRACE_SPAN("strudel_line.fit");
  STRUDEL_ASSIGN_OR_RETURN(
      ml::Dataset data,
      BuildDataset(files, options_.features, options_.budget.get(),
                   options_.num_threads));
  if (data.size() == 0) {
    return Status::InvalidArgument(
        "strudel_line: no labelled non-empty lines in training files");
  }
  // Quarantine (zero out) feature columns carrying NaN/Inf instead of
  // letting them poison the normaliser and the forest; the report stays
  // available for diagnostics.
  fit_quarantine_ = ml::QuarantineNonFiniteColumns(data.features);
  normalizer_.FitTransform(data.features);
  ml::RandomForestOptions forest_options = options_.forest;
  forest_options.budget = options_.budget;
  model_ = std::make_unique<ml::RandomForest>(std::move(forest_options));
  Status status = model_->Fit(data);
  // A failed training run (budget exhaustion, invalid features) must not
  // leave a half-trained model claiming to be fitted.
  if (!status.ok()) {
    model_.reset();
    return status;
  }
  // The bulk predict path parallelises inside the forest, so the
  // strudel-level --threads setting has to reach it.
  model_->set_num_threads(options_.num_threads);
  return status;
}

void StrudelLine::set_num_threads(int num_threads) {
  options_.num_threads = num_threads;
  options_.forest.num_threads = num_threads;
  if (model_ != nullptr) model_->set_num_threads(num_threads);
}

Status StrudelLine::SaveTo(std::ostream& out) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("strudel_line: model not fitted");
  }
  out << "strudel_line v2\n";
  std::ostringstream options_payload;
  options_payload.precision(17);
  internal_model_io::SaveLineFeatureOptions(options_payload,
                                            options_.features);
  internal_model_io::WriteSection(out, "options", options_payload.str());

  std::ostringstream normalizer_payload;
  normalizer_payload.precision(17);
  STRUDEL_RETURN_IF_ERROR(normalizer_.Save(normalizer_payload));
  internal_model_io::WriteSection(out, "normalizer",
                                  normalizer_payload.str());

  std::ostringstream forest_payload;
  forest_payload.precision(17);
  STRUDEL_RETURN_IF_ERROR(model_->Save(forest_payload));
  internal_model_io::WriteSection(out, "forest", forest_payload.str());
  if (!out) return Status::IOError("strudel_line: write failed");
  return Status::OK();
}

Status StrudelLine::LoadFrom(std::istream& in) {
  std::string magic, version;
  in >> magic >> version;
  if (!in || magic != "strudel_line") {
    return Status::CorruptModel("strudel_line: bad header");
  }
  if (version != "v2") {
    return Status::CorruptModel("strudel_line: unsupported format version '" +
                                version + "'");
  }

  // Parse every section into temporaries; this model is only mutated once
  // the whole stream has validated, so a corrupt tail cannot leave a
  // half-loaded model behind.
  STRUDEL_ASSIGN_OR_RETURN(
      const std::string options_payload,
      internal_model_io::ReadSection(in, "options",
                                     internal_model_io::kOptionsSectionCap));
  LineFeatureOptions features_options = options_.features;
  {
    std::istringstream section(options_payload);
    if (!internal_model_io::LoadLineFeatureOptions(section,
                                                   features_options)) {
      return Status::CorruptModel("strudel_line: bad feature options");
    }
  }

  STRUDEL_ASSIGN_OR_RETURN(
      const std::string normalizer_payload,
      internal_model_io::ReadSection(
          in, "normalizer", internal_model_io::kNormalizerSectionCap));
  ml::MinMaxNormalizer normalizer;
  {
    std::istringstream section(normalizer_payload);
    STRUDEL_RETURN_IF_ERROR(normalizer.Load(section));
  }

  STRUDEL_ASSIGN_OR_RETURN(
      const std::string forest_payload,
      internal_model_io::ReadSection(in, "forest",
                                     internal_model_io::kForestSectionCap));
  auto forest = std::make_unique<ml::RandomForest>(options_.forest);
  {
    std::istringstream section(forest_payload);
    STRUDEL_RETURN_IF_ERROR(forest->Load(section));
  }

  STRUDEL_RETURN_IF_ERROR(internal_model_io::ReadModelEnd(in));

  // Cross-section consistency: the forest, the normaliser and the feature
  // schema implied by the options must agree on the feature count.
  const size_t expected = LineFeatureNames(features_options).size();
  if (forest->num_features() != expected ||
      normalizer.mins().size() != expected) {
    return Status::CorruptModel(
        "strudel_line: feature count mismatch across sections");
  }

  forest->set_num_threads(options_.num_threads);
  options_.features = features_options;
  normalizer_ = std::move(normalizer);
  model_ = std::move(forest);
  return Status::OK();
}

LinePrediction StrudelLine::Predict(const csv::Table& table) const {
  // Cannot fail without a budget.
  return std::move(TryPredict(table, nullptr)).value();
}

Result<LinePrediction> StrudelLine::TryPredict(const csv::Table& table,
                                               ExecutionBudget* budget) const {
  STRUDEL_TRACE_SPAN("strudel_line.predict");
  LinePrediction prediction;
  const int rows = table.num_rows();
  prediction.classes.assign(static_cast<size_t>(std::max(rows, 0)),
                            kEmptyLabel);
  prediction.probabilities.assign(
      static_cast<size_t>(std::max(rows, 0)),
      std::vector<double>(kNumElementClasses, 0.0));
  if (model_ == nullptr || rows == 0) return prediction;

  DerivedDetectionResult detection =
      DetectDerivedCells(table, options_.features.derived_options);
  STRUDEL_ASSIGN_OR_RETURN(
      ml::Matrix features,
      ExtractLineFeatures(table, detection, options_.features, budget,
                          options_.num_threads));
  normalizer_.Transform(features);
  // Empty lines carry no class and are never charged, so gather the
  // non-empty rows and batch them through the forest's flat engine.
  std::vector<size_t> live;
  live.reserve(static_cast<size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    if (!table.row_empty(r)) live.push_back(static_cast<size_t>(r));
  }
  STRUDEL_TRACE_SPAN("forest.predict");
  if (live.empty()) return prediction;
  const ml::Matrix gathered = features.select_rows(live);
  std::vector<std::vector<double>> probas;
  STRUDEL_RETURN_IF_ERROR(
      model_->TryPredictProbaAll(gathered, budget, "line_predict", &probas));
  for (size_t j = 0; j < live.size(); ++j) {
    const size_t ri = live[j];
    prediction.classes[ri] = static_cast<int>(ArgMax(probas[j]));
    prediction.probabilities[ri] = std::move(probas[j]);
  }
  return prediction;
}

}  // namespace strudel
