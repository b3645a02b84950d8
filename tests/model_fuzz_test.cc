// Seeded model-corruption fuzzing: every mutation of a serialised model
// must either load into a fully working model (benign mutations exist —
// swapping two identical tokens, trailing garbage) or fail with a clean
// kCorruptModel / kInvalidArgument / kIOError, leaving no partial state.
// Crashes, hangs and multi-gigabyte allocations are the bugs this suite
// exists to catch; it runs under ASan/UBSan in the sanitizer gate.
//
// Every case is deterministic in (kind, seed) and the failure message
// names both, so any finding reproduces exactly.

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/corpus.h"
#include "strudel/model_io.h"
#include "testing/model_corruptor.h"
#include "testing/test_tables.h"

namespace strudel {
namespace {

constexpr uint64_t kSeedsPerKind = 12;

bool IsCleanLoadFailure(StatusCode code) {
  return code == StatusCode::kCorruptModel ||
         code == StatusCode::kInvalidArgument || code == StatusCode::kIOError;
}

// One trained model of each flavour, serialised once and shared by all
// cases; training dominates the suite's runtime otherwise.
class ModelFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DatasetProfile profile =
        datagen::ScaledProfile(datagen::SausProfile(), 0.05, 0.35);
    auto corpus = datagen::GenerateCorpus(profile, 71);

    StrudelLineOptions line_options;
    line_options.forest.num_trees = 6;
    line_options.forest.num_threads = 1;
    StrudelLine line_model(line_options);
    ASSERT_TRUE(line_model.Fit(corpus).ok());
    std::stringstream line_stream;
    ASSERT_TRUE(SaveModel(line_model, line_stream).ok());
    // Saved models carry no flat_forest section; append the legacy one
    // older files end with, so kFlatSection mutates a real section.
    line_bytes_ =
        new std::string(testing::AppendLegacyFlatSection(line_stream.str()));

    StrudelCellOptions cell_options;
    cell_options.forest.num_trees = 4;
    cell_options.line.forest.num_trees = 4;
    cell_options.forest.num_threads = 1;
    cell_options.line.forest.num_threads = 1;
    cell_options.line_cross_fit_folds = 0;
    StrudelCell cell_model(cell_options);
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

  static std::string Corrupt(const std::string& bytes,
                             testing::ModelCorruptionKind kind,
                             uint64_t seed) {
    Rng rng(seed * 131 + static_cast<uint64_t>(kind));
    return testing::CorruptModelBytes(bytes, kind, rng);
  }

  static const std::string* line_bytes_;
  static const std::string* cell_bytes_;
};

const std::string* ModelFuzzTest::line_bytes_ = nullptr;
const std::string* ModelFuzzTest::cell_bytes_ = nullptr;

TEST_F(ModelFuzzTest, LineModelSurvivesEveryMutation) {
  const csv::Table probe = testing::Figure1File().table;
  for (testing::ModelCorruptionKind kind : testing::kAllModelCorruptionKinds) {
    for (uint64_t seed = 0; seed < kSeedsPerKind; ++seed) {
      SCOPED_TRACE(std::string("kind=") +
                   std::string(testing::ModelCorruptionKindName(kind)) +
                   " seed=" + std::to_string(seed));
      std::stringstream stream(Corrupt(*line_bytes_, kind, seed));
      auto loaded = LoadLineModel(stream);
      if (loaded.ok()) {
        // Benign mutation: the model must be fully usable.
        EXPECT_TRUE(loaded->fitted());
        LinePrediction prediction = loaded->Predict(probe);
        EXPECT_EQ(prediction.classes.size(),
                  static_cast<size_t>(probe.num_rows()));
      } else {
        EXPECT_TRUE(IsCleanLoadFailure(loaded.status().code()))
            << loaded.status().ToString();
      }
    }
  }
}

TEST_F(ModelFuzzTest, CellModelSurvivesEveryMutation) {
  const csv::Table probe = testing::Figure1File().table;
  for (testing::ModelCorruptionKind kind : testing::kAllModelCorruptionKinds) {
    for (uint64_t seed = 0; seed < kSeedsPerKind; ++seed) {
      SCOPED_TRACE(std::string("kind=") +
                   std::string(testing::ModelCorruptionKindName(kind)) +
                   " seed=" + std::to_string(seed));
      std::stringstream stream(Corrupt(*cell_bytes_, kind, seed));
      auto loaded = LoadCellModel(stream);
      if (loaded.ok()) {
        EXPECT_TRUE(loaded->fitted());
        CellPrediction prediction = loaded->Predict(probe);
        EXPECT_EQ(prediction.classes.size(),
                  static_cast<size_t>(probe.num_rows()));
      } else {
        EXPECT_TRUE(IsCleanLoadFailure(loaded.status().code()))
            << loaded.status().ToString();
      }
    }
  }
}

TEST_F(ModelFuzzTest, DoubleMutationsStillContained) {
  // Stacked corruption: two mutations of different kinds on one stream.
  constexpr uint64_t kNumKinds = std::size(testing::kAllModelCorruptionKinds);
  for (uint64_t seed = 0; seed < kSeedsPerKind; ++seed) {
    const auto first = testing::kAllModelCorruptionKinds[seed % kNumKinds];
    const auto second =
        testing::kAllModelCorruptionKinds[(seed + 3) % kNumKinds];
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::stringstream stream(
        Corrupt(Corrupt(*line_bytes_, first, seed), second, seed + 1000));
    auto loaded = LoadLineModel(stream);
    if (loaded.ok()) {
      EXPECT_TRUE(loaded->fitted());
    } else {
      EXPECT_TRUE(IsCleanLoadFailure(loaded.status().code()))
          << loaded.status().ToString();
    }
  }
}

TEST_F(ModelFuzzTest, FlatSectionCorruptionNeverMispredicts) {
  // A damaged legacy flat_forest section either fails the load cleanly
  // or — when its framing and checksum still hold — loads into a model
  // whose predictions are bit-identical to the pristine one. A
  // loaded-but-mispredicting model would mean the section's payload was
  // used instead of the trees.
  const csv::Table probe = testing::Figure1File().table;
  std::stringstream pristine_stream(*line_bytes_);
  auto pristine = LoadLineModel(pristine_stream);
  ASSERT_TRUE(pristine.ok());
  const LinePrediction expected = pristine->Predict(probe);

  constexpr uint64_t kFlatSeeds = 48;  // 16 per variant on average
  for (uint64_t seed = 0; seed < kFlatSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::stringstream stream(
        Corrupt(*line_bytes_, testing::ModelCorruptionKind::kFlatSection,
                seed));
    auto loaded = LoadLineModel(stream);
    if (!loaded.ok()) {
      EXPECT_TRUE(IsCleanLoadFailure(loaded.status().code()))
          << loaded.status().ToString();
      continue;
    }
    const LinePrediction got = loaded->Predict(probe);
    ASSERT_EQ(got.classes, expected.classes);
    ASSERT_EQ(got.probabilities, expected.probabilities);
  }
}

TEST_F(ModelFuzzTest, CorruptorIsDeterministic) {
  for (testing::ModelCorruptionKind kind : testing::kAllModelCorruptionKinds) {
    EXPECT_EQ(Corrupt(*line_bytes_, kind, 7), Corrupt(*line_bytes_, kind, 7))
        << testing::ModelCorruptionKindName(kind);
  }
}

TEST_F(ModelFuzzTest, UncorruptedBaselineLoads) {
  // Sanity check for the fixture itself: the pristine bytes round-trip.
  std::stringstream line_stream(*line_bytes_);
  ASSERT_TRUE(LoadLineModel(line_stream).ok());
  std::stringstream cell_stream(*cell_bytes_);
  ASSERT_TRUE(LoadCellModel(cell_stream).ok());
}

}  // namespace
}  // namespace strudel
