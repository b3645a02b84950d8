#include "testing/golden_corpus.h"

#include "csv/writer.h"
#include "datagen/corpus.h"
#include "datagen/profiles.h"
#include "strudel/ingest.h"

namespace strudel::testing {

namespace {

constexpr uint64_t kInputSeed = 33;
constexpr uint64_t kTrainingSeed = 2021;
constexpr int kFilesPerProfile = 3;

}  // namespace

std::vector<GoldenInput> GoldenInputs() {
  std::vector<GoldenInput> inputs;
  for (const datagen::DatasetProfile& full : datagen::AllProfiles()) {
    datagen::DatasetProfile profile = datagen::ScaledProfile(
        full, static_cast<double>(kFilesPerProfile) / full.num_files, 0.5);
    profile.num_files = kFilesPerProfile;
    for (const AnnotatedFile& file :
         datagen::GenerateCorpus(profile, kInputSeed)) {
      inputs.push_back({file.name, csv::WriteTable(file.table)});
    }
  }
  return inputs;
}

StrudelCellOptions GoldenModelOptions() {
  StrudelCellOptions options;
  options.forest.num_trees = 8;
  options.line.forest.num_trees = 8;
  return options;
}

std::vector<AnnotatedFile> GoldenTrainingCorpus() {
  std::vector<std::vector<AnnotatedFile>> corpora;
  for (const datagen::DatasetProfile& full : datagen::AllProfiles()) {
    datagen::DatasetProfile profile = datagen::ScaledProfile(full, 0.0, 0.5);
    corpora.push_back(datagen::GenerateCorpus(profile, kTrainingSeed));
  }
  return datagen::ConcatCorpora(std::move(corpora));
}

Result<std::string> ClassifyToText(const StrudelCell& model,
                                   std::string_view csv) {
  STRUDEL_ASSIGN_OR_RETURN(IngestResult ingest, IngestText(csv));
  const csv::Table& table = ingest.table;
  STRUDEL_ASSIGN_OR_RETURN(CellPrediction prediction,
                           model.TryPredict(table));
  std::string text;
  for (int r = 0; r < table.num_rows(); ++r) {
    const size_t row = static_cast<size_t>(r);
    text += ElementClassName(prediction.line_prediction.classes[row]);
    for (int c = 0; c < table.num_cols(); ++c) {
      text += '\t';
      text += ElementClassName(
          prediction.classes[row][static_cast<size_t>(c)]);
    }
    text += '\n';
  }
  return text;
}

}  // namespace strudel::testing
