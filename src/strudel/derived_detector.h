// Algorithm 2 (paper §5.5): derived cell detection.
//
// A derived cell aggregates other numeric cells. Detection is anchored on
// cells containing aggregation keywords ("Total", "Average", ...): only
// numeric cells sharing a row or column with an anchoring cell become
// candidates (observation i: derived cells aggregate within their own row
// or column; anchoring keeps the search tractable). For row candidates
// the detector accumulates value vectors row by row upwards, then
// downwards (observation ii: aggregations cover nearby values first); for
// column candidates leftwards, then rightwards. After each accumulation
// step the candidate vector is compared element-wise against the running
// SUM and MEAN vectors (observation iii: sum and mean dominate) with
// tolerance `delta`; if the fraction of matching candidates exceeds
// `coverage`, matching candidates are marked derived.
//
// Paper settings: delta d = 0.1 and coverage c = 0.5 (§6.1.2).

#ifndef STRUDEL_STRUDEL_DERIVED_DETECTOR_H_
#define STRUDEL_STRUDEL_DERIVED_DETECTOR_H_

#include <vector>

#include "csv/table.h"

namespace strudel {

struct DerivedDetectorOptions {
  /// Aggregation slack: a candidate v matches an aggregate s when
  /// |v - s| <= max(delta, delta * |v|) — relative tolerance with an
  /// absolute floor, so both large totals and small rates can match.
  double delta = 0.1;
  /// Fraction of candidates that must match before any is marked.
  double coverage = 0.5;
  bool detect_sum = true;
  bool detect_mean = true;
  /// Aggregations of fewer than this many values are ignored — a "sum"
  /// of one row is a copy, not an aggregate.
  int min_aggregated = 2;
  /// Cap on how far the scan walks from the candidates (0 = to the table
  /// border).
  int max_scan = 0;
};

struct DerivedDetectionResult {
  /// Per-cell flag (row-major grid matching the table shape).
  std::vector<std::vector<bool>> is_derived;
  int derived_count = 0;

  bool at(int row, int col) const {
    if (row < 0 || static_cast<size_t>(row) >= is_derived.size()) return false;
    const auto& r = is_derived[static_cast<size_t>(row)];
    if (col < 0 || static_cast<size_t>(col) >= r.size()) return false;
    return r[static_cast<size_t>(col)];
  }
};

/// Runs Algorithm 2 over the whole table.
DerivedDetectionResult DetectDerivedCells(
    const csv::Table& table, const DerivedDetectorOptions& options = {});

/// DerivedCoverage line feature (paper Table 1): number of numeric cells
/// of `row` recognised as derived, normalised by the number of numeric
/// cells in the row (0 when the row has none).
double DerivedCoverageOfRow(const csv::Table& table,
                            const DerivedDetectionResult& detection, int row);

}  // namespace strudel

#endif  // STRUDEL_STRUDEL_DERIVED_DETECTOR_H_
