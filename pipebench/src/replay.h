// The traced replay: every input, one at a time, through the public calls
// the ingest + classify path is made of, in pipeline order, with a span
// around each call. Tracing lives entirely in these benchmark files; the
// library is timed from outside, around its public functions.
//
// Span tree of one input (parent -> children):
//
//   input                          total of the pipeline calls below
//     csv.io                       MmapSource::Open (as IngestFile does)
//     csv.sanitize                 csv::Sanitize
//     csv.dialect                  csv::DetectDialectWithFallback
//     csv.read                     csv::ParseCsv (passes 1 and 2)
//       csv.index           [a]    csv::BuildStructuralIndex
//     types.infer                  csv::Table built from the parsed rows
//     ml.forest_cells              StrudelCell::TryPredict
//       ml.forest_lines     [a]    StrudelLine::TryPredict
//         strudel.derived   [a]    DetectDerivedCells
//         strudel.featurize_lines [a] ExtractLineFeatures
//       strudel.derived     [a]    DetectDerivedCells
//       strudel.blocks      [a]    ComputeBlockSizes
//       strudel.featurize_cells [a] ExtractCellFeatures
//     strudel.output               FormatClassifiedTable + the write
//
// [a] marks attribution spans. A composite call cannot be split from
// outside, so its children are measured by calling the same public
// function with the same arguments again, right after the input's
// pipeline finished, and are excluded from the input total. A layer's
// self time is its span's duration minus its children's durations; so
// forest time is a composite predict call minus its measured children,
// and `unattributed` is the input total minus its direct children.

#ifndef PIPEBENCH_REPLAY_H_
#define PIPEBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "strudel/strudel_cell.h"

namespace pipebench {

struct Span {
  std::string layer;  // metric prefix of the span's self time
  std::string call;   // the public function timed
  int id = 0;
  int parent = -1;
  int input = 0;
  bool attribution = false;
  double start_ms = 0.0;  // since the recorder's epoch
  double end_ms = 0.0;
  double cpu_ms = 0.0;  // process CPU time spent inside the span
  double duration_ms() const { return end_ms - start_ms; }
};

/// Per-pass aggregates of one replay over all inputs.
struct ReplayPass {
  double total_ms = 0.0;  // sum of per-input pipeline totals
  std::vector<std::string> outputs;
  long long failed = 0;
  // Traced passes only:
  std::vector<Span> spans;
  long long anchor_rows = 0;
  long long derived_cells = 0;
  long long mmap_inputs = 0;
  long long dialect_fallbacks = 0;
};

/// The model's own thread settings are whatever the caller set on it.
struct ReplaySettings {
  int reader_threads = 1;
  std::string output_dir;
};

/// Pairs of untraced and traced replays of every input until `seconds`
/// have passed (at least one pair), plus registry counter deltas per
/// pass. Traced passes add the spans and the attribution calls.
struct ReplayRun {
  std::vector<ReplayPass> untraced;
  std::vector<ReplayPass> traced;
  double rows_predicted = 0.0;  // ml.forest_rows_predicted per pass
  double rows_scanned = 0.0;    // csv.rows_scanned per pass
};
ReplayRun RunReplayPairs(const strudel::StrudelCell& model,
                         const std::vector<LabeledInput>& inputs,
                         const ReplaySettings& settings, double seconds);

/// Checks every replay output against `expected` (same order), adding
/// the operations and failures to `result`.
void CheckReplayOutputs(const ReplayRun& run,
                        const std::vector<std::string>& expected,
                        RunResult& result);

/// Turns the replays into the per-layer metrics, and checks the
/// accounting identity: layer self times plus `unattributed_ms` equal the
/// traced total. Violations are recorded as problems in `result`.
void AddLayerMetrics(const ReplayRun& run, size_t num_inputs,
                     RunResult& result);

/// Serialises spans as a JSON array (one object per span).
std::string SpansJson(const std::vector<Span>& spans);

}  // namespace pipebench

#endif  // PIPEBENCH_REPLAY_H_
