#include "strudel/model_io.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "datagen/corpus.h"
#include "strudel/section_io.h"
#include "testing/model_corruptor.h"
#include "testing/test_tables.h"

namespace strudel {
namespace {

std::vector<AnnotatedFile> SmallCorpus(uint64_t seed = 91) {
  datagen::DatasetProfile profile =
      datagen::ScaledProfile(datagen::SausProfile(), 0.05, 0.35);
  return datagen::GenerateCorpus(profile, seed);
}

StrudelLineOptions FastLine() {
  StrudelLineOptions options;
  options.forest.num_trees = 10;
  options.forest.num_threads = 1;
  return options;
}

StrudelCellOptions FastCell() {
  StrudelCellOptions options;
  options.forest.num_trees = 8;
  options.line.forest.num_trees = 8;
  options.line_cross_fit_folds = 0;
  return options;
}

TEST(ModelIoTest, ForestRoundTripPreservesPredictions) {
  ml::Dataset data;
  data.num_classes = 3;
  Rng rng(1);
  for (int i = 0; i < 150; ++i) {
    const int cls = static_cast<int>(rng.UniformInt(uint64_t{3}));
    data.features.append_row(std::vector<double>{
        cls + rng.Gaussian(0.0, 0.2), rng.UniformDouble()});
    data.labels.push_back(cls);
  }
  data.groups.assign(150, -1);
  ml::RandomForestOptions options;
  options.num_trees = 7;
  ml::RandomForest original(options);
  ASSERT_TRUE(original.Fit(data).ok());

  std::stringstream stream;
  ASSERT_TRUE(original.Save(stream).ok());
  ml::RandomForest loaded;
  ASSERT_TRUE(loaded.Load(stream).ok());
  EXPECT_EQ(loaded.num_trees(), 7);
  EXPECT_EQ(loaded.num_classes(), 3);
  for (int i = 0; i < 30; ++i) {
    std::vector<double> x = {i * 0.1, 0.5};
    EXPECT_EQ(original.PredictProba(x), loaded.PredictProba(x)) << i;
  }
}

TEST(ModelIoTest, NormalizerRoundTrip) {
  ml::Matrix m = ml::Matrix::FromRows({{1.0, -3.0}, {5.0, 7.0}});
  ml::MinMaxNormalizer original;
  original.Fit(m);
  std::stringstream stream;
  ASSERT_TRUE(original.Save(stream).ok());
  ml::MinMaxNormalizer loaded;
  ASSERT_TRUE(loaded.Load(stream).ok());
  EXPECT_EQ(loaded.mins(), original.mins());
  EXPECT_EQ(loaded.maxs(), original.maxs());
}

TEST(ModelIoTest, LineModelRoundTripPreservesPredictions) {
  auto corpus = SmallCorpus();
  StrudelLine original(FastLine());
  ASSERT_TRUE(original.Fit(corpus).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveModel(original, stream).ok());
  auto loaded = LoadLineModel(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const AnnotatedFile& file : corpus) {
    EXPECT_EQ(original.Predict(file.table).classes,
              loaded->Predict(file.table).classes);
  }
}

TEST(ModelIoTest, CellModelRoundTripPreservesPredictions) {
  auto corpus = SmallCorpus(92);
  StrudelCell original(FastCell());
  ASSERT_TRUE(original.Fit(corpus).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveModel(original, stream).ok());
  auto loaded = LoadCellModel(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(original.Predict(corpus[0].table).classes,
            loaded->Predict(corpus[0].table).classes);
}

TEST(ModelIoTest, FileRoundTrip) {
  auto corpus = SmallCorpus(93);
  StrudelLine original(FastLine());
  ASSERT_TRUE(original.Fit(corpus).ok());
  const std::string path = ::testing::TempDir() + "/strudel_line.model";
  ASSERT_TRUE(SaveModelToFile(original, path).ok());
  auto loaded = LoadLineModelFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(original.Predict(corpus[0].table).classes,
            loaded->Predict(corpus[0].table).classes);
}

TEST(ModelIoTest, FeatureOptionsSurviveRoundTrip) {
  auto corpus = SmallCorpus(94);
  StrudelLineOptions options = FastLine();
  options.features.neighbor_window = 7;
  options.features.derived_options.delta = 0.25;
  StrudelLine original(options);
  ASSERT_TRUE(original.Fit(corpus).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveModel(original, stream).ok());
  auto loaded = LoadLineModel(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->options().features.neighbor_window, 7);
  EXPECT_DOUBLE_EQ(loaded->options().features.derived_options.delta, 0.25);
}

TEST(ModelIoTest, UnfittedModelCannotBeSaved) {
  StrudelLine unfitted(FastLine());
  std::stringstream stream;
  EXPECT_EQ(SaveModel(unfitted, stream).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ModelIoTest, CorruptStreamRejected) {
  std::stringstream garbage("not a model at all");
  auto loaded = LoadLineModel(garbage);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptModel);

  // Old v1 headers are refused rather than misparsed.
  std::stringstream old_version("strudel_line v1 5 8 0 0.1 0.5 1 1 2 0\n");
  auto old_loaded = LoadLineModel(old_version);
  EXPECT_FALSE(old_loaded.ok());
  EXPECT_EQ(old_loaded.status().code(), StatusCode::kCorruptModel);

  std::stringstream truncated("strudel_line v2\nsection options 4");
  auto trunc_loaded = LoadLineModel(truncated);
  EXPECT_FALSE(trunc_loaded.ok());
  EXPECT_EQ(trunc_loaded.status().code(), StatusCode::kCorruptModel);
}

TEST(ModelIoTest, ChecksumDamageRejected) {
  auto corpus = SmallCorpus(96);
  StrudelLine original(FastLine());
  ASSERT_TRUE(original.Fit(corpus).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveModel(original, stream).ok());
  std::string bytes = stream.str();

  // Flip one payload byte deep inside the forest section; the framing
  // stays intact, so only the checksum can catch it.
  const size_t victim = bytes.size() - bytes.size() / 4;
  bytes[victim] = bytes[victim] == '7' ? '3' : '7';
  std::stringstream damaged(bytes);
  auto loaded = LoadLineModel(damaged);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptModel);
}

TEST(ModelIoTest, TruncatedModelLeavesNoPartialState) {
  auto corpus = SmallCorpus(97);
  StrudelLine original(FastLine());
  ASSERT_TRUE(original.Fit(corpus).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveModel(original, stream).ok());
  const std::string bytes = stream.str();

  for (const double fraction : {0.1, 0.5, 0.9}) {
    std::stringstream truncated(
        bytes.substr(0, static_cast<size_t>(bytes.size() * fraction)));
    StrudelLine model;
    EXPECT_EQ(model.LoadFrom(truncated).code(), StatusCode::kCorruptModel);
    EXPECT_FALSE(model.fitted());
  }
}

TEST(ModelIoTest, InflatedSectionSizeRejected) {
  // A section header claiming more bytes than the cap must be refused
  // before any allocation happens.
  std::stringstream huge(
      "strudel_line v2\nsection options 99999999999 deadbeef\n");
  auto loaded = LoadLineModel(huge);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptModel);
}

TEST(ModelIoTest, ForestLoadRejectsCorruptStreams) {
  ml::RandomForest forest;
  std::stringstream wrong_magic("woods v1 2 1\n");
  EXPECT_FALSE(forest.Load(wrong_magic).ok());
  std::stringstream implausible("forest v1 2 99999999\n");
  EXPECT_FALSE(forest.Load(implausible).ok());
  // Tree with an out-of-range child index.
  std::stringstream bad_child(
      "forest v1 2 1\n"
      "tree v1 2 1 1\n"
      "0 0.5 7 8 0.5 10 0 2 0.5 0.5\n");
  EXPECT_FALSE(forest.Load(bad_child).ok());
}

TEST(ModelIoTest, NormalizerLoadRejectsCorruptStreams) {
  ml::MinMaxNormalizer normalizer;
  std::stringstream wrong("maxmin v1 1\n0 1\n");
  EXPECT_FALSE(normalizer.Load(wrong).ok());
  std::stringstream truncated("minmax v1 3\n0 1\n");
  EXPECT_FALSE(normalizer.Load(truncated).ok());
}

TEST(ModelIoTest, MissingFileRejected) {
  EXPECT_FALSE(LoadLineModelFromFile("/nonexistent/x.model").ok());
  EXPECT_FALSE(LoadCellModelFromFile("/nonexistent/x.model").ok());
}

// One trained model of each flavour, saved once and shared by the
// model-file tests below.
class SavedModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto corpus = SmallCorpus(98);
    StrudelLine line_model(FastLine());
    ASSERT_TRUE(line_model.Fit(corpus).ok());
    std::stringstream line_stream;
    ASSERT_TRUE(SaveModel(line_model, line_stream).ok());
    line_bytes_ = new std::string(line_stream.str());

    StrudelCell cell_model(FastCell());
    ASSERT_TRUE(cell_model.Fit(corpus).ok());
    std::stringstream cell_stream;
    ASSERT_TRUE(SaveModel(cell_model, cell_stream).ok());
    cell_bytes_ = new std::string(cell_stream.str());
  }

  static void TearDownTestSuite() {
    delete line_bytes_;
    delete cell_bytes_;
    line_bytes_ = nullptr;
    cell_bytes_ = nullptr;
  }

  static Result<StrudelLine> LoadLine(const std::string& bytes) {
    std::stringstream stream(bytes);
    return LoadLineModel(stream);
  }

  static Result<StrudelCell> LoadCell(const std::string& bytes) {
    std::stringstream stream(bytes);
    return LoadCellModel(stream);
  }

  // Applies `edit` to the nested line-model payload of a saved cell
  // model and re-frames that section, so only the nested model's end
  // changes.
  static std::string EditLinePayload(
      const std::string& cell_bytes,
      const std::function<std::string(std::string)>& edit) {
    std::istringstream in(cell_bytes);
    std::string header;
    std::getline(in, header);
    std::ostringstream out;
    out << header << '\n';
    for (const std::string_view name :
         {"options", "line", "normalizer", "forest"}) {
      Result<std::string> payload = internal_model_io::ReadSection(
          in, name, internal_model_io::kForestSectionCap);
      if (!payload.ok()) {
        ADD_FAILURE() << payload.status().ToString();
        return cell_bytes;
      }
      internal_model_io::WriteSection(
          out, name, name == "line" ? edit(*payload) : *payload);
    }
    return out.str();
  }

  static const std::string* line_bytes_;
  static const std::string* cell_bytes_;
};

const std::string* SavedModelTest::line_bytes_ = nullptr;
const std::string* SavedModelTest::cell_bytes_ = nullptr;

// A flat_forest section whose framing holds but whose checksum is wrong.
constexpr std::string_view kBadChecksumSection =
    "section flat_forest 3 0000000000000000\nabc\n";

TEST_F(SavedModelTest, ModelsCarryNoFlatSection) {
  EXPECT_EQ(line_bytes_->find("section flat_forest"), std::string::npos);
  EXPECT_EQ(cell_bytes_->find("section flat_forest"), std::string::npos);
}

TEST_F(SavedModelTest, LegacyFlatSectionIsVerifiedAndSkipped) {
  const csv::Table probe = testing::Figure1File().table;
  auto plain = LoadLine(*line_bytes_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto legacy = LoadLine(testing::AppendLegacyFlatSection(*line_bytes_));
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  const LinePrediction expected = plain->Predict(probe);
  const LinePrediction got = legacy->Predict(probe);
  EXPECT_EQ(got.classes, expected.classes);
  EXPECT_EQ(got.probabilities, expected.probabilities);

  auto damaged = LoadLine(*line_bytes_ + std::string(kBadChecksumSection));
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruptModel);
}

TEST_F(SavedModelTest, CellModelSkipsLegacySectionsAtBothLevels) {
  const csv::Table probe = testing::Figure1File().table;
  auto plain = LoadCell(*cell_bytes_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  // The layout older cell models had: a legacy section at the end of the
  // nested line payload and another at the end of the file.
  const std::string legacy_bytes = testing::AppendLegacyFlatSection(
      EditLinePayload(*cell_bytes_, testing::AppendLegacyFlatSection));
  auto legacy = LoadCell(legacy_bytes);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  const CellPrediction expected = plain->Predict(probe);
  const CellPrediction got = legacy->Predict(probe);
  EXPECT_EQ(got.classes, expected.classes);
  EXPECT_EQ(got.line_prediction.probabilities,
            expected.line_prediction.probabilities);

  auto damaged_outer =
      LoadCell(*cell_bytes_ + std::string(kBadChecksumSection));
  ASSERT_FALSE(damaged_outer.ok());
  EXPECT_EQ(damaged_outer.status().code(), StatusCode::kCorruptModel);
  auto damaged_nested =
      LoadCell(EditLinePayload(*cell_bytes_, [](std::string payload) {
        return payload + std::string(kBadChecksumSection);
      }));
  ASSERT_FALSE(damaged_nested.ok());
  EXPECT_EQ(damaged_nested.status().code(), StatusCode::kCorruptModel);
}

TEST_F(SavedModelTest, TrailingDataAfterLastSectionRejected) {
  const std::string junk = "junk after the model\n";
  const std::string legacy_line =
      testing::AppendLegacyFlatSection(*line_bytes_);
  for (const std::string& bytes :
       {*line_bytes_ + junk, legacy_line + junk,
        testing::AppendLegacyFlatSection(legacy_line)}) {
    auto loaded = LoadLine(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptModel)
        << loaded.status().ToString();
  }
  const auto append_junk = [&](std::string payload) {
    return payload + junk;
  };
  for (const std::string& bytes :
       {*cell_bytes_ + junk,
        testing::AppendLegacyFlatSection(*cell_bytes_) + junk,
        EditLinePayload(*cell_bytes_, append_junk)}) {
    auto loaded = LoadCell(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptModel)
        << loaded.status().ToString();
  }
  // Trailing whitespace is still the end of the file.
  EXPECT_TRUE(LoadLine(*line_bytes_ + "\n \n").ok());
  EXPECT_TRUE(LoadCell(*cell_bytes_ + "\n").ok());
}

TEST_F(SavedModelTest, SetNumThreadsReachesLoadedForests) {
  auto loaded = LoadCell(*cell_bytes_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  loaded->set_num_threads(1);
  EXPECT_EQ(loaded->model().num_threads(), 1);
  EXPECT_EQ(loaded->line_model().model().num_threads(), 1);
}

}  // namespace
}  // namespace strudel
