#include "strudel/derived_detector.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "strudel/keywords.h"
#include "types/value_parser.h"

namespace strudel {

namespace {

struct Candidate {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

bool Matches(double candidate, double aggregate, double delta) {
  const double tolerance = std::max(delta, delta * std::fabs(candidate));
  return std::fabs(candidate - aggregate) <= tolerance;
}

// One directional scan (Algorithm 2, lines 9-19 / 20-30 and their
// mirrored repeats). `candidates` share a row (axis_is_row) or column;
// `step` is -1 (up/left) or +1 (down/right). Marks matching candidates in
// `result` once the coverage threshold is passed.
void Scan(const csv::Table& table, const std::vector<Candidate>& candidates,
          bool axis_is_row, int step, const DerivedDetectorOptions& options,
          DerivedDetectionResult& result) {
  if (candidates.empty()) return;
  const size_t n = candidates.size();
  std::vector<double> sum(n, 0.0);
  std::vector<int> contributions(n, 0);

  const int limit = axis_is_row ? table.num_rows() : table.num_cols();
  const int origin = axis_is_row ? candidates[0].row : candidates[0].col;
  int scanned = 0;
  for (int offset = 1;; ++offset) {
    const int pos = origin + step * offset;
    if (pos < 0 || pos >= limit) break;
    if (options.max_scan > 0 && offset > options.max_scan) break;
    ++scanned;
    // Accumulate this line's values at the candidate coordinates
    // (non-numeric and empty cells contribute nothing).
    for (size_t i = 0; i < n; ++i) {
      const int r = axis_is_row ? pos : candidates[i].row;
      const int c = axis_is_row ? candidates[i].col : pos;
      if (auto value = ParseDouble(table.cell(r, c))) {
        sum[i] += *value;
        ++contributions[i];
      }
    }
    if (scanned < options.min_aggregated) continue;

    // Element-wise comparison against the running sum and mean vectors.
    size_t matched = 0;
    std::vector<bool> match(n, false);
    for (size_t i = 0; i < n; ++i) {
      if (contributions[i] < options.min_aggregated) continue;
      bool hit = false;
      if (options.detect_sum && Matches(candidates[i].value, sum[i],
                                        options.delta)) {
        hit = true;
      }
      if (!hit && options.detect_mean) {
        const double mean = sum[i] / contributions[i];
        if (Matches(candidates[i].value, mean, options.delta)) hit = true;
      }
      if (hit) {
        match[i] = true;
        ++matched;
      }
    }
    if (static_cast<double>(matched) / static_cast<double>(n) >
        options.coverage) {
      for (size_t i = 0; i < n; ++i) {
        if (!match[i]) continue;
        auto cell = result.is_derived[static_cast<size_t>(candidates[i].row)]
                        .begin() +
                    candidates[i].col;
        if (!*cell) {
          *cell = true;
          ++result.derived_count;
        }
      }
    }
  }
}

}  // namespace

DerivedDetectionResult DetectDerivedCells(
    const csv::Table& table, const DerivedDetectorOptions& options) {
  const int rows = table.num_rows();
  const int cols = table.num_cols();
  DerivedDetectionResult result;
  result.is_derived.assign(static_cast<size_t>(rows),
                           std::vector<bool>(static_cast<size_t>(cols),
                                             false));

  // getAnchoringCells (Algorithm 2, line 2).
  std::vector<std::pair<int, int>> anchors;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (HasAggregationKeyword(table.cell(r, c))) anchors.emplace_back(r, c);
    }
  }
  if (anchors.empty()) return result;

  // Avoid rescanning the same row/column for multiple anchors in it.
  std::vector<bool> row_done(static_cast<size_t>(rows), false);
  std::vector<bool> col_done(static_cast<size_t>(cols), false);

  for (auto [ar, ac] : anchors) {
    if (!row_done[static_cast<size_t>(ar)]) {
      row_done[static_cast<size_t>(ar)] = true;
      std::vector<Candidate> row_candidates;
      for (int c = 0; c < cols; ++c) {
        if (auto value = ParseDouble(table.cell(ar, c))) {
          row_candidates.push_back({ar, c, *value});
        }
      }
      // Upwards then downwards (lines 9-19 and the mirrored repeat).
      Scan(table, row_candidates, /*axis_is_row=*/true, -1, options, result);
      Scan(table, row_candidates, /*axis_is_row=*/true, +1, options, result);
    }
    if (!col_done[static_cast<size_t>(ac)]) {
      col_done[static_cast<size_t>(ac)] = true;
      std::vector<Candidate> col_candidates;
      for (int r = 0; r < rows; ++r) {
        if (auto value = ParseDouble(table.cell(r, ac))) {
          col_candidates.push_back({r, ac, *value});
        }
      }
      // Leftwards then rightwards (lines 20-30 and the mirrored repeat).
      Scan(table, col_candidates, /*axis_is_row=*/false, -1, options, result);
      Scan(table, col_candidates, /*axis_is_row=*/false, +1, options, result);
    }
  }
  return result;
}

double DerivedCoverageOfRow(const csv::Table& table,
                            const DerivedDetectionResult& detection,
                            int row) {
  int numeric = 0;
  int derived = 0;
  for (int c = 0; c < table.num_cols(); ++c) {
    if (!IsNumericType(table.cell_type(row, c))) continue;
    ++numeric;
    if (detection.at(row, c)) ++derived;
  }
  if (numeric == 0) return 0.0;
  return static_cast<double>(derived) / static_cast<double>(numeric);
}

}  // namespace strudel
