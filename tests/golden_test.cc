// Golden per-cell outputs across commits: a committed 8+8-tree model
// (tests/golden/cell_8x8.model) classifies the 18 golden inputs (3 per
// datagen profile, tests/testing/golden_corpus.h) at 1 and 4 threads, and
// the SHA-256 of every input and of every classification must equal the
// committed digest in tests/golden/outputs.sha256. An input mismatch
// means datagen changed what the goldens cover; a classification
// mismatch means a per-cell output changed. The build pins
// -ffp-contract=off (top-level CMakeLists.txt), so one set of digests
// holds on every architecture. Run alone with `ctest -L golden`;
// tests/golden/regenerate_goldens.cc rewrites the data on purpose.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "strudel/model_io.h"
#include "testing/golden_corpus.h"
#include "testing/sha256.h"

namespace strudel {
namespace {

const std::string kGoldenDir = STRUDEL_GOLDEN_DIR;

// sha256sum lines ("<hex>  <name>") keyed by name.
std::map<std::string, std::string> ReadDigests() {
  std::map<std::string, std::string> digests;
  std::ifstream in(kGoldenDir + "/outputs.sha256");
  std::string line;
  while (std::getline(in, line)) {
    const size_t split = line.find("  ");
    if (split == std::string::npos) continue;
    digests[line.substr(split + 2)] = line.substr(0, split);
  }
  return digests;
}

TEST(GoldenOutputsTest, CommittedModelReproducesCommittedDigests) {
  const std::map<std::string, std::string> digests = ReadDigests();
  const std::vector<testing::GoldenInput> inputs = testing::GoldenInputs();
  ASSERT_EQ(inputs.size(), 18u);
  ASSERT_EQ(digests.size(), 2 * inputs.size());

  auto model = LoadCellModelFromFile(kGoldenDir + "/cell_8x8.model");
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  for (const testing::GoldenInput& input : inputs) {
    SCOPED_TRACE(input.name);
    ASSERT_EQ(testing::Sha256Hex(input.csv), digests.at(input.name))
        << "the generated input changed";
  }
  for (const int threads : {1, 4}) {
    model->set_num_threads(threads);
    for (const testing::GoldenInput& input : inputs) {
      SCOPED_TRACE(input.name + " at " + std::to_string(threads) +
                   " threads");
      auto classes = testing::ClassifyToText(*model, input.csv);
      ASSERT_TRUE(classes.ok()) << classes.status().ToString();
      EXPECT_EQ(testing::Sha256Hex(*classes),
                digests.at(input.name + ".classes"))
          << "per-cell output changed";
    }
  }
}

TEST(GoldenOutputsTest, Sha256MatchesKnownVectors) {
  EXPECT_EQ(testing::Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(testing::Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      testing::Sha256Hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // Lengths around the one-block/two-block padding edge (55, 56, 64).
  EXPECT_EQ(testing::Sha256Hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(testing::Sha256Hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
  EXPECT_EQ(testing::Sha256Hex(std::string(64, 'a')),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

}  // namespace
}  // namespace strudel
