#include "strudel/derived_detector.h"

#include <gtest/gtest.h>

#include "testing/test_tables.h"

namespace strudel {
namespace {

using testing::MakeTable;

TEST(DerivedDetectorTest, DetectsSumRowAnchoredByKeyword) {
  csv::Table table = MakeTable({
      {"Item", "A", "B"},
      {"x", "10", "1"},
      {"y", "20", "2"},
      {"z", "30", "3"},
      {"Total", "60", "6"},
  });
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_TRUE(result.at(4, 1));
  EXPECT_TRUE(result.at(4, 2));
  EXPECT_FALSE(result.at(1, 1));
  EXPECT_FALSE(result.at(2, 2));
}

TEST(DerivedDetectorTest, DetectsMeanRow) {
  csv::Table table = MakeTable({
      {"x", "10", "40"},
      {"y", "20", "60"},
      {"Average", "15", "50"},
  });
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_TRUE(result.at(2, 1));
  EXPECT_TRUE(result.at(2, 2));
}

TEST(DerivedDetectorTest, DetectsSumColumnFromHeaderKeyword) {
  csv::Table table = MakeTable({
      {"Item", "A", "B", "Total"},
      {"x", "10", "5", "15"},
      {"y", "20", "7", "27"},
  });
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_TRUE(result.at(1, 3));
  EXPECT_TRUE(result.at(2, 3));
  EXPECT_FALSE(result.at(1, 1));
}

TEST(DerivedDetectorTest, NoKeywordMeansNoCandidates) {
  csv::Table table = MakeTable({
      {"x", "10", "1"},
      {"y", "20", "2"},
      {"z", "30", "3"},
      {"All together now", "", ""},  // "all" IS a keyword; use clean rows
  });
  // Remove the keyword row to make the point. Note "grand" alone is not a
  // keyword (and hyphenated forms like "sum-less" WOULD match on the
  // whole word "sum").
  csv::Table clean = MakeTable({
      {"x", "10", "1"},
      {"y", "20", "2"},
      {"grand", "30", "3"},
  });
  DerivedDetectionResult result = DetectDerivedCells(clean);
  EXPECT_EQ(result.derived_count, 0);
}

TEST(DerivedDetectorTest, DownwardsDetectionWorks) {
  // Derived line at the TOP, aggregating the rows below it.
  csv::Table table = MakeTable({
      {"Total", "60"},
      {"x", "10"},
      {"y", "20"},
      {"z", "30"},
  });
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_TRUE(result.at(0, 1));
}

TEST(DerivedDetectorTest, LeftwardsDetectionWorks) {
  // Derived column on the left anchored by its own header.
  csv::Table table = MakeTable({
      {"Sum", "A", "B"},
      {"30", "10", "20"},
      {"70", "30", "40"},
  });
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_TRUE(result.at(1, 0));
  EXPECT_TRUE(result.at(2, 0));
}

TEST(DerivedDetectorTest, ToleranceAllowsSmallSlack) {
  csv::Table table = MakeTable({
      {"x", "10.0"},
      {"y", "20.0"},
      {"Total", "30.5"},  // off by 0.5, within 10% relative slack (3.05)
  });
  DerivedDetectorOptions options;
  options.delta = 0.1;
  DerivedDetectionResult result = DetectDerivedCells(table, options);
  EXPECT_TRUE(result.at(2, 1));
}

TEST(DerivedDetectorTest, LargeMismatchRejected) {
  csv::Table table = MakeTable({
      {"x", "10"},
      {"y", "20"},
      {"Total", "95"},  // nowhere near 30
  });
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_FALSE(result.at(2, 1));
  EXPECT_EQ(result.derived_count, 0);
}

TEST(DerivedDetectorTest, MinAggregatedPreventsCopyMatches) {
  // A "total" that equals the single row above is a copy, not a sum.
  csv::Table table = MakeTable({
      {"x", "10"},
      {"Total", "10"},
  });
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_FALSE(result.at(1, 1));
}

TEST(DerivedDetectorTest, CoverageThresholdGatesMarking) {
  // Only 1 of 3 numeric cells matches the sums: below coverage 0.5.
  csv::Table table = MakeTable({
      {"x", "10", "1", "7"},
      {"y", "20", "2", "8"},
      {"Total", "30", "99", "99"},
  });
  DerivedDetectorOptions options;
  options.coverage = 0.5;
  DerivedDetectionResult result = DetectDerivedCells(table, options);
  EXPECT_EQ(result.derived_count, 0);
  // With a permissive coverage the matching cell is marked.
  options.coverage = 0.2;
  result = DetectDerivedCells(table, options);
  EXPECT_TRUE(result.at(2, 1));
  EXPECT_FALSE(result.at(2, 2));
}

TEST(DerivedDetectorTest, HandlesThousandsSeparatedValues) {
  csv::Table table = MakeTable({
      {"x", "1,000"},
      {"y", "2,500"},
      {"Total", "3,500"},
  });
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_TRUE(result.at(2, 1));
}

TEST(DerivedDetectorTest, GroupFractionSumsDetected) {
  // The Figure 1 fixture: "Total" row sums the three data rows.
  AnnotatedFile file = testing::Figure1File();
  DerivedDetectionResult result = DetectDerivedCells(file.table);
  EXPECT_TRUE(result.at(7, 2));  // 100+250+650 = 1000
  EXPECT_TRUE(result.at(7, 3));  // 10.5+12.0+30.5 = 53.0
}

TEST(DerivedDetectorTest, DerivedCoverageOfRow) {
  AnnotatedFile file = testing::Figure1File();
  DerivedDetectionResult result = DetectDerivedCells(file.table);
  EXPECT_DOUBLE_EQ(DerivedCoverageOfRow(file.table, result, 7), 1.0);
  EXPECT_DOUBLE_EQ(DerivedCoverageOfRow(file.table, result, 4), 0.0);
  // A row without numeric cells scores 0.
  EXPECT_DOUBLE_EQ(DerivedCoverageOfRow(file.table, result, 0), 0.0);
}

TEST(DerivedDetectorTest, MaxScanLimitsSearchDistance) {
  csv::Table table = MakeTable({
      {"x", "10"},
      {"y", "20"},
      {"", ""},
      {"", ""},
      {"", ""},
      {"Total", "30"},
  });
  DerivedDetectorOptions options;
  options.max_scan = 2;  // cannot reach the data rows
  DerivedDetectionResult result = DetectDerivedCells(table, options);
  EXPECT_FALSE(result.at(5, 1));
  options.max_scan = 0;  // unbounded
  result = DetectDerivedCells(table, options);
  EXPECT_TRUE(result.at(5, 1));
}

TEST(DerivedDetectorTest, MultipleAnchorsInOneRowScanOnce) {
  // Two keyword cells in the same row must not double-mark or miscount.
  csv::Table table = MakeTable({
      {"x", "10", "1"},
      {"y", "20", "2"},
      {"Total", "30", "3"},
      {"", "", ""},
      {"Sum", "30", "3"},
  });
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_TRUE(result.at(2, 1));
  EXPECT_TRUE(result.at(2, 2));
  // Row 4 sums rows 0-2 upwards: 10+20+30=60 != 30 -> no match; but the
  // nearer partial sum 20+30=50 != 30 and 30 alone is below
  // min_aggregated... actually 20+30=50, 10+... never 30 -> unmarked.
  EXPECT_FALSE(result.at(4, 1));
  // Each derived cell counted once.
  EXPECT_EQ(result.derived_count, 2);
}

TEST(DerivedDetectorTest, RaggedRowsAreSafe) {
  // Short physical rows (ragged CSV) must not break the scans: the
  // single-cell note row below the totals contributes nothing.
  csv::Table table(std::vector<std::vector<std::string>>{
      {"x", "10", "1"},
      {"y", "20", "2"},
      {"Total", "30", "3"},
      {"a trailing note"},
  });
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_TRUE(result.at(2, 1));
  EXPECT_TRUE(result.at(2, 2));
  EXPECT_FALSE(result.at(3, 0));
}

TEST(DerivedDetectorTest, MaxOfValuesIsNotMarkedWithSumAndMeanOff) {
  // "All" anchors the row; 30 is the max of the values above, which
  // Algorithm 2 does not match, so with sum and mean off nothing is found.
  csv::Table table = MakeTable({
      {"x", "10"},
      {"y", "30"},
      {"z", "17"},
      {"All time high", "30"},
  });
  DerivedDetectorOptions options;
  options.detect_sum = false;
  options.detect_mean = false;
  DerivedDetectionResult result = DetectDerivedCells(table, options);
  EXPECT_FALSE(result.at(3, 1));
}

TEST(DerivedDetectorTest, EmptyTableIsSafe) {
  csv::Table table;
  DerivedDetectionResult result = DetectDerivedCells(table);
  EXPECT_EQ(result.derived_count, 0);
  EXPECT_FALSE(result.at(0, 0));
}

}  // namespace
}  // namespace strudel
