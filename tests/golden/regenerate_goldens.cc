// Rewrites the golden-output data from the recipe in
// tests/testing/golden_corpus.h: trains the 8+8-tree model, saves it,
// loads it back, classifies the 18 golden inputs at one thread and writes
//
//   <out>/cell_8x8.model     the model
//   <out>/<name>             each input CSV
//   <out>/<name>.classes     its classification
//   <out>/outputs.sha256     sha256sum lines for all 36 files
//
// Usage: regenerate_goldens <out-dir>
// Run it only when per-cell outputs are meant to change, then copy
// cell_8x8.model and outputs.sha256 into tests/golden/ and say why in the
// change's notes; `cd <out> && sha256sum -c outputs.sha256` checks a run.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "strudel/model_io.h"
#include "testing/golden_corpus.h"
#include "testing/sha256.h"

namespace {

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace strudel;
  if (argc != 2) {
    std::fprintf(stderr, "usage: regenerate_goldens <out-dir>\n");
    return 2;
  }
  const std::filesystem::path out = argv[1];
  std::filesystem::create_directories(out);
  const std::string model_path = (out / "cell_8x8.model").string();

  StrudelCell trained(testing::GoldenModelOptions());
  trained.set_num_threads(1);
  Status status = trained.Fit(testing::GoldenTrainingCorpus());
  if (status.ok()) status = SaveModelToFile(trained, model_path);
  if (!status.ok()) {
    std::fprintf(stderr, "train: %s\n", status.ToString().c_str());
    return 1;
  }
  auto model = LoadCellModelFromFile(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "load: %s\n", model.status().ToString().c_str());
    return 1;
  }
  model->set_num_threads(1);

  std::string digests;
  for (const testing::GoldenInput& input : testing::GoldenInputs()) {
    auto classes = testing::ClassifyToText(*model, input.csv);
    if (!classes.ok()) {
      std::fprintf(stderr, "%s: %s\n", input.name.c_str(),
                   classes.status().ToString().c_str());
      return 1;
    }
    if (!WriteFile((out / input.name).string(), input.csv) ||
        !WriteFile((out / (input.name + ".classes")).string(), *classes)) {
      std::fprintf(stderr, "write failed under %s\n", out.c_str());
      return 1;
    }
    digests += testing::Sha256Hex(input.csv) + "  " + input.name + "\n";
    digests += testing::Sha256Hex(*classes) + "  " + input.name +
               ".classes\n";
  }
  if (!WriteFile((out / "outputs.sha256").string(), digests)) {
    std::fprintf(stderr, "write failed under %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s and outputs.sha256\n", model_path.c_str());
  return 0;
}
