// The golden-output corpus: 18 generated inputs (3 per datagen profile,
// fixed seed), the recipe of the small model that classifies them, and
// the canonical text of one classification. The golden suite
// (tests/golden_test.cc, ctest -L golden) holds a committed model's
// classifications of these inputs to committed SHA-256 digests;
// tests/golden/regenerate_goldens.cc rewrites both from this recipe.

#ifndef STRUDEL_TESTS_TESTING_GOLDEN_CORPUS_H_
#define STRUDEL_TESTS_TESTING_GOLDEN_CORPUS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "strudel/classes.h"
#include "strudel/strudel_cell.h"

namespace strudel::testing {

struct GoldenInput {
  std::string name;  // e.g. "saus_0001.csv"
  std::string csv;   // the generated file's bytes
};

/// The 18 inputs, in profile order (datagen::AllProfiles()), 3 each.
std::vector<GoldenInput> GoldenInputs();

/// The 8+8-tree model's options and its training corpus (a seed disjoint
/// from the inputs').
StrudelCellOptions GoldenModelOptions();
std::vector<AnnotatedFile> GoldenTrainingCorpus();

/// Ingests `csv` as `strudel classify` does and renders the prediction
/// one table row per line: the line class, then a tab and the class of
/// every column ("empty" for empty cells) — the `.labels` sidecar format.
Result<std::string> ClassifyToText(const StrudelCell& model,
                                   std::string_view csv);

}  // namespace strudel::testing

#endif  // STRUDEL_TESTS_TESTING_GOLDEN_CORPUS_H_
