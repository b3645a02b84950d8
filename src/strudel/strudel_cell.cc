#include "strudel/strudel_cell.h"

#include <numeric>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/trace.h"
#include "strudel/options_io.h"
#include "strudel/section_io.h"

namespace strudel {

StrudelCell::StrudelCell(StrudelCellOptions options)
    : options_(std::move(options)), line_model_(options_.line) {
  // Keep the feature layout in sync with the column-probability switch.
  options_.features.include_column_probabilities =
      options_.use_column_probabilities;
  // The line stage shares the cell model's budget unless it carries its
  // own. The member was initialised before this propagation, so rebuild.
  if (options_.budget != nullptr && options_.line.budget == nullptr) {
    options_.line.budget = options_.budget;
    line_model_ = StrudelLine(options_.line);
  }
}

ml::Dataset StrudelCell::BuildDataset(
    const std::vector<AnnotatedFile>& files,
    const std::vector<std::vector<std::vector<double>>>& line_probabilities,
    const CellFeatureOptions& options) {
  return BuildDataset(FilePointers(files), line_probabilities, options);
}

ml::Dataset StrudelCell::BuildDataset(
    const std::vector<const AnnotatedFile*>& files,
    const std::vector<std::vector<std::vector<double>>>& line_probabilities,
    const CellFeatureOptions& options) {
  return BuildDataset(files, line_probabilities, {}, options);
}

ml::Dataset StrudelCell::BuildDataset(
    const std::vector<const AnnotatedFile*>& files,
    const std::vector<std::vector<std::vector<double>>>& line_probabilities,
    const std::vector<std::vector<std::vector<double>>>&
        column_probabilities,
    const CellFeatureOptions& options) {
  // Cannot fail without a budget.
  return std::move(BuildDataset(files, line_probabilities,
                                column_probabilities, options, nullptr))
      .value();
}

Result<ml::Dataset> StrudelCell::BuildDataset(
    const std::vector<const AnnotatedFile*>& files,
    const std::vector<std::vector<std::vector<double>>>& line_probabilities,
    const std::vector<std::vector<std::vector<double>>>&
        column_probabilities,
    const CellFeatureOptions& options, ExecutionBudget* budget,
    int num_threads) {
  ml::Dataset data;
  data.num_classes = kNumElementClasses;
  data.feature_names = CellFeatureNames(options);
  static const std::vector<std::vector<double>> kNoProbabilities;
  for (size_t file_idx = 0; file_idx < files.size(); ++file_idx) {
    const AnnotatedFile& file = *files[file_idx];
    const auto& probabilities = file_idx < line_probabilities.size()
                                    ? line_probabilities[file_idx]
                                    : kNoProbabilities;
    const auto& col_probabilities =
        file_idx < column_probabilities.size()
            ? column_probabilities[file_idx]
            : kNoProbabilities;
    DerivedDetectionResult detection =
        DetectDerivedCells(file.table, options.derived_options);
    BlockSizeResult blocks = ComputeBlockSizes(file.table);
    STRUDEL_ASSIGN_OR_RETURN(
        ml::Matrix features,
        ExtractCellFeatures(file.table, probabilities, col_probabilities,
                            detection, blocks, options, budget,
                            num_threads));
    const auto coords = NonEmptyCellCoordinates(file.table);
    for (size_t i = 0; i < coords.size(); ++i) {
      const auto [r, c] = coords[i];
      const int label = file.annotation.cell_labels[static_cast<size_t>(r)]
                                                   [static_cast<size_t>(c)];
      if (label == kEmptyLabel) continue;
      data.features.append_row(features.row(i));
      data.labels.push_back(label);
      data.groups.push_back(static_cast<int>(file_idx));
    }
  }
  return data;
}

Status StrudelCell::Fit(const std::vector<AnnotatedFile>& files) {
  return Fit(FilePointers(files));
}

Status StrudelCell::Fit(const std::vector<const AnnotatedFile*>& files) {
  STRUDEL_TRACE_SPAN("strudel_cell.fit");
  if (files.empty()) {
    return Status::InvalidArgument("strudel_cell: no training files");
  }

  // Stage 1: the line model used at prediction time sees all files.
  STRUDEL_RETURN_IF_ERROR(line_model_.Fit(files));

  // Training-time line probabilities, cross-fitted over files.
  std::vector<std::vector<std::vector<double>>> probabilities(files.size());
  const int folds =
      std::min<int>(options_.line_cross_fit_folds,
                    static_cast<int>(files.size()));
  if (folds >= 2) {
    Rng rng(options_.seed);
    std::vector<size_t> order(files.size());
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    for (int fold = 0; fold < folds; ++fold) {
      std::vector<const AnnotatedFile*> train_files;
      std::vector<size_t> held_out;
      for (size_t i = 0; i < order.size(); ++i) {
        if (static_cast<int>(i % static_cast<size_t>(folds)) == fold) {
          held_out.push_back(order[i]);
        } else {
          train_files.push_back(files[order[i]]);
        }
      }
      StrudelLine fold_model(options_.line);
      STRUDEL_RETURN_IF_ERROR(fold_model.Fit(train_files));
      for (size_t idx : held_out) {
        STRUDEL_ASSIGN_OR_RETURN(
            LinePrediction fold_prediction,
            fold_model.TryPredict(files[idx]->table, options_.budget.get()));
        probabilities[idx] = std::move(fold_prediction.probabilities);
      }
    }
  } else {
    for (size_t i = 0; i < files.size(); ++i) {
      STRUDEL_ASSIGN_OR_RETURN(
          LinePrediction line_prediction,
          line_model_.TryPredict(files[i]->table, options_.budget.get()));
      probabilities[i] = std::move(line_prediction.probabilities);
    }
  }

  // Optional column stage (extension): trained on all training files;
  // training-time column probabilities are in-sample — columns aggregate
  // over whole files, so leakage pressure is much lower than at line
  // level.
  std::vector<std::vector<std::vector<double>>> column_probabilities;
  if (options_.use_column_probabilities) {
    STRUDEL_RETURN_IF_ERROR(column_model_.Fit(files));
    column_probabilities.resize(files.size());
    for (size_t i = 0; i < files.size(); ++i) {
      column_probabilities[i] =
          column_model_.Predict(files[i]->table).probabilities;
    }
  }

  // Stage 2: the cell forest.
  STRUDEL_ASSIGN_OR_RETURN(
      ml::Dataset data,
      BuildDataset(files, probabilities, column_probabilities,
                   options_.features, options_.budget.get(),
                   options_.num_threads));
  if (data.size() == 0) {
    return Status::InvalidArgument(
        "strudel_cell: no labelled non-empty cells in training files");
  }
  // Quarantine non-finite feature columns before normalisation/training.
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

std::vector<std::vector<double>> StrudelCell::ColumnProbabilities(
    const csv::Table& table) const {
  if (!options_.use_column_probabilities || !column_model_.fitted()) {
    return {};
  }
  return column_model_.Predict(table).probabilities;
}

void StrudelCell::set_num_threads(int num_threads) {
  options_.num_threads = num_threads;
  options_.forest.num_threads = num_threads;
  options_.line.num_threads = num_threads;
  options_.line.forest.num_threads = num_threads;
  line_model_.set_num_threads(num_threads);
  if (model_ != nullptr) model_->set_num_threads(num_threads);
}

Status StrudelCell::SaveTo(std::ostream& out) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("strudel_cell: model not fitted");
  }
  if (options_.use_column_probabilities) {
    return Status::Unimplemented(
        "strudel_cell: column-probability models are not serialisable");
  }
  out << "strudel_cell v2\n";
  std::ostringstream options_payload;
  options_payload.precision(17);
  internal_model_io::SaveDerivedOptions(options_payload,
                                        options_.features.derived_options);
  internal_model_io::WriteSection(out, "options", options_payload.str());

  // The nested line model is one section whose payload is its own full
  // v2 serialisation (header plus sections).
  std::ostringstream line_payload;
  STRUDEL_RETURN_IF_ERROR(line_model_.SaveTo(line_payload));
  internal_model_io::WriteSection(out, "line", line_payload.str());

  std::ostringstream normalizer_payload;
  normalizer_payload.precision(17);
  STRUDEL_RETURN_IF_ERROR(normalizer_.Save(normalizer_payload));
  internal_model_io::WriteSection(out, "normalizer",
                                  normalizer_payload.str());

  std::ostringstream forest_payload;
  forest_payload.precision(17);
  STRUDEL_RETURN_IF_ERROR(model_->Save(forest_payload));
  internal_model_io::WriteSection(out, "forest", forest_payload.str());
  if (!out) return Status::IOError("strudel_cell: write failed");
  return Status::OK();
}

Status StrudelCell::LoadFrom(std::istream& in) {
  std::string magic, version;
  in >> magic >> version;
  if (!in || magic != "strudel_cell") {
    return Status::CorruptModel("strudel_cell: bad header");
  }
  if (version != "v2") {
    return Status::CorruptModel("strudel_cell: unsupported format version '" +
                                version + "'");
  }

  // Parse every section into temporaries and commit only once the whole
  // stream has validated — a corrupt tail cannot leave a half-loaded
  // model behind.
  STRUDEL_ASSIGN_OR_RETURN(
      const std::string options_payload,
      internal_model_io::ReadSection(in, "options",
                                     internal_model_io::kOptionsSectionCap));
  CellFeatureOptions features_options = options_.features;
  features_options.include_column_probabilities = false;
  {
    std::istringstream section(options_payload);
    if (!internal_model_io::LoadDerivedOptions(
            section, features_options.derived_options)) {
      return Status::CorruptModel("strudel_cell: bad feature options");
    }
  }

  STRUDEL_ASSIGN_OR_RETURN(
      const std::string line_payload,
      internal_model_io::ReadSection(in, "line",
                                     internal_model_io::kForestSectionCap));
  StrudelLine line_model(options_.line);
  {
    std::istringstream section(line_payload);
    STRUDEL_RETURN_IF_ERROR(line_model.LoadFrom(section));
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

  const size_t expected = CellFeatureNames(features_options).size();
  if (forest->num_features() != expected ||
      normalizer.mins().size() != expected) {
    return Status::CorruptModel(
        "strudel_cell: feature count mismatch across sections");
  }

  forest->set_num_threads(options_.num_threads);
  options_.features = features_options;
  options_.use_column_probabilities = false;
  line_model_ = std::move(line_model);
  normalizer_ = std::move(normalizer);
  model_ = std::move(forest);
  return Status::OK();
}

CellPrediction StrudelCell::Predict(const csv::Table& table) const {
  // Cannot fail without a budget.
  return std::move(TryPredict(table, nullptr)).value();
}

Result<CellPrediction> StrudelCell::TryPredict(const csv::Table& table,
                                               ExecutionBudget* budget) const {
  STRUDEL_TRACE_SPAN("strudel_cell.predict");
  CellPrediction prediction;
  prediction.classes.assign(
      static_cast<size_t>(std::max(table.num_rows(), 0)),
      std::vector<int>(static_cast<size_t>(std::max(table.num_cols(), 0)),
                       kEmptyLabel));
  if (model_ == nullptr) return prediction;

  STRUDEL_ASSIGN_OR_RETURN(prediction.line_prediction,
                           line_model_.TryPredict(table, budget));
  DerivedDetectionResult detection =
      DetectDerivedCells(table, options_.features.derived_options);
  BlockSizeResult blocks = ComputeBlockSizes(table);
  STRUDEL_ASSIGN_OR_RETURN(
      ml::Matrix features,
      ExtractCellFeatures(table, prediction.line_prediction.probabilities,
                          ColumnProbabilities(table), detection, blocks,
                          options_.features, budget, options_.num_threads));
  normalizer_.Transform(features);
  const auto coords = NonEmptyCellCoordinates(table);
  STRUDEL_TRACE_SPAN("forest.predict");
  if (coords.empty()) return prediction;
  // The feature matrix has one row per non-empty cell, already in coords
  // order, so the forest classifies the whole batch through the flat
  // engine and the classes scatter back onto the grid.
  std::vector<int> classes;
  STRUDEL_RETURN_IF_ERROR(
      model_->TryPredictAll(features, budget, "cell_predict", &classes));
  for (size_t i = 0; i < coords.size(); ++i) {
    const auto [r, c] = coords[i];
    prediction.classes[static_cast<size_t>(r)][static_cast<size_t>(c)] =
        classes[i];
  }
  return prediction;
}

}  // namespace strudel
