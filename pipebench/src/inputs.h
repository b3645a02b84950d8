// Benchmark inputs: the seeded generators for every workload and for the
// fixed training corpus, the ground-truth sidecars, and the output check
// shared by every entry point (library, batch, serve).

#ifndef PIPEBENCH_INPUTS_H_
#define PIPEBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ml/metrics.h"

namespace pipebench {

/// Writes the training corpus (CSV + ".labels" pairs) into `dir`. The
/// corpus is a constant of the benchmark: it depends on no run seed, so
/// one trained model serves every run of a build.
strudel::Status WriteTrainingCorpus(const std::string& dir);

/// Writes the inputs of `workload` for `seed`: the CSV files the program
/// sees go to `inputs_dir`, their ground truth to `labels_dir` as
/// "<name>.labels". Fails on an unknown workload.
strudel::Status WriteWorkloadInputs(const std::string& workload,
                                    uint64_t seed,
                                    const std::string& inputs_dir,
                                    const std::string& labels_dir);

/// Writes the accuracy set of `workload` for `seed`, laid out like its
/// inputs: more labelled files that are classified once, untimed, and
/// count only towards cell_macro_f1. mendeley_large gets 95 further
/// value draws of each of its five layouts, at 400 data rows; the other
/// workloads hold enough header and metadata cells of their own, and
/// their directories stay empty.
strudel::Status WriteAccuracyInputs(const std::string& workload,
                                    uint64_t seed,
                                    const std::string& inputs_dir,
                                    const std::string& labels_dir);

/// One input file with its ground truth (read from the sidecar, never by
/// parsing the CSV, so holding it costs no table memory).
struct LabeledInput {
  std::string name;
  std::string path;
  uint64_t bytes = 0;
  int rows = 0;
  int cols = 0;
  long long cells = 0;  // non-empty labelled cells
  /// Row-major cell classes, kEmptyLabel for empty cells.
  std::vector<int> cell_labels;
};

/// Lists `inputs_dir` in name order and loads each file's sidecar.
strudel::Result<std::vector<LabeledInput>> LoadInputs(
    const std::string& inputs_dir, const std::string& labels_dir);

/// Checks one formatted classification ("<row> <line-class>
/// <col>:<cell-class>..." per row, as FormatClassifiedTable writes it)
/// against the input's ground truth: the grid must have the input's
/// shape and classify exactly its non-empty cells. Matching cells are
/// added to `confusion`. Returns an empty string when the output is
/// well-formed, else what is wrong.
std::string CheckOutput(const LabeledInput& input, const std::string& output,
                        strudel::ml::ConfusionMatrix* confusion);

/// FNV-1a hash of `data`, continuing from `hash`.
uint64_t Fnv1a(const std::string& data, uint64_t hash = 1469598103934665603ull);

}  // namespace pipebench

#endif  // PIPEBENCH_INPUTS_H_
