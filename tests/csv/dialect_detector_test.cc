#include "csv/dialect_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>

#include "csv/writer.h"

namespace strudel::csv {
namespace {

struct DialectCase {
  const char* text;
  char expected_delimiter;
};

// gtest_discover_tests copies the printed parameter into the ctest name,
// which must be one line without ';'. The texts hold newlines, tabs and
// ';', so the label names the delimiter and shows the first row with the
// delimiter drawn as '_'.
void PrintTo(const DialectCase& c, std::ostream* os) {
  std::string row(c.text, std::strcspn(c.text, "\n"));
  std::replace(row.begin(), row.end(), c.expected_delimiter, '_');
  switch (c.expected_delimiter) {
    case ',': *os << "comma "; break;
    case ';': *os << "semicolon "; break;
    case '\t': *os << "tab "; break;
    case '|': *os << "pipe "; break;
    default: *os << static_cast<int>(c.expected_delimiter) << ' ';
  }
  *os << row;
}

class DetectDelimiterTest : public ::testing::TestWithParam<DialectCase> {};

TEST_P(DetectDelimiterTest, FindsDelimiter) {
  auto dialect = DetectDialect(GetParam().text);
  ASSERT_TRUE(dialect.ok());
  EXPECT_EQ(dialect->delimiter, GetParam().expected_delimiter)
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Delimiters, DetectDelimiterTest,
    ::testing::Values(
        DialectCase{"a,b,c\n1,2,3\n4,5,6\n", ','},
        DialectCase{"a;b;c\n1;2;3\n4;5;6\n", ';'},
        DialectCase{"a\tb\tc\n1\t2\t3\n4\t5\t6\n", '\t'},
        DialectCase{"a|b|c\n1|2|3\n4|5|6\n", '|'},
        // Values containing commas but semicolon-delimited columns.
        DialectCase{"x;1,5;2\ny;2,5;3\nz;3,5;4\n", ';'}));

TEST(DialectDetectorTest, EmptyInputFails) {
  EXPECT_FALSE(DetectDialect("").ok());
  EXPECT_FALSE(DetectDialect("   \n  ").ok());
}

TEST(DialectDetectorTest, SingleColumnFallsBackToPreferredDelimiter) {
  // No delimiter occurs at all: all candidates score equally, and the
  // tie-break prefers the first configured delimiter (comma).
  auto dialect = DetectDialect("justonecolumn\nanother\n");
  ASSERT_TRUE(dialect.ok());
  EXPECT_EQ(dialect->delimiter, ',');
}

TEST(DialectDetectorTest, ConsistencyPrefersStableRowPattern) {
  // Comma splits rows into inconsistent widths; semicolon gives a stable
  // 3-column pattern.
  const char* text =
      "name;amount, approx;date\n"
      "a;1,2;2019-01-01\n"
      "b;3;2019-01-02\n"
      "c;4,5;2019-01-03\n";
  auto scores = ScoreDialects(text);
  const DialectScore* comma = nullptr;
  const DialectScore* semicolon = nullptr;
  for (const auto& s : scores) {
    if (s.dialect.quote != '"') continue;
    if (s.dialect.delimiter == ',') comma = &s;
    if (s.dialect.delimiter == ';') semicolon = &s;
  }
  ASSERT_NE(comma, nullptr);
  ASSERT_NE(semicolon, nullptr);
  EXPECT_GT(semicolon->consistency, comma->consistency);
}

TEST(DialectDetectorTest, QuotedFieldsDetected) {
  const char* text =
      "\"a,1\",b,c\n"
      "\"d,2\",e,f\n"
      "\"g,3\",h,i\n";
  auto dialect = DetectDialect(text);
  ASSERT_TRUE(dialect.ok());
  EXPECT_EQ(dialect->delimiter, ',');
  EXPECT_EQ(dialect->quote, '"');
}

TEST(DialectDetectorTest, RoundTripThroughWriter) {
  std::vector<std::vector<std::string>> rows = {
      {"id", "name", "value"},
      {"1", "alpha", "10.5"},
      {"2", "beta", "11.5"},
      {"3", "gamma", "12.5"},
  };
  for (char delimiter : {',', ';', '\t', '|'}) {
    Dialect dialect{delimiter, '"', '\0'};
    std::string text = WriteCsv(rows, dialect);
    auto detected = DetectDialect(text);
    ASSERT_TRUE(detected.ok());
    EXPECT_EQ(detected->delimiter, delimiter);
  }
}

TEST(DialectDetectorTest, MaxLinesLimitsWork) {
  std::string text = "a,b,c\n1,2,3\n";
  for (int i = 0; i < 100; ++i) text += "4,5,6\n";
  DetectorOptions options;
  options.max_lines = 5;
  auto dialect = DetectDialect(text, options);
  ASSERT_TRUE(dialect.ok());
  EXPECT_EQ(dialect->delimiter, ',');
}

// --- Degenerate inputs: the fallback chain must stay well-defined. -------

TEST(DialectFallbackTest, EmptyInputFallsBackToRfc4180Default) {
  for (const char* text : {"", "   \n  ", "\n\n\n"}) {
    auto detection = DetectDialectWithFallback(text);
    EXPECT_EQ(detection.source, DialectSource::kDefault) << '"' << text << '"';
    EXPECT_EQ(detection.dialect, Rfc4180Dialect()) << '"' << text << '"';
    EXPECT_EQ(detection.confidence, 0.0) << '"' << text << '"';
  }
}

TEST(DialectFallbackTest, SingleCellFileGetsADialectWithoutFailing) {
  auto detection = DetectDialectWithFallback("lonely");
  // One cell, no delimiters: nothing informative, the default applies
  // (a single unsplit cell parses identically under every dialect).
  EXPECT_EQ(detection.dialect.delimiter, ',');
  // And the strict API pins its historical behavior: non-empty input
  // always yields a dialect.
  auto strict = DetectDialect("lonely");
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->delimiter, ',');
}

TEST(DialectFallbackTest, AllQuoteFileDoesNotCrashOrFail) {
  const std::string text(64, '"');
  auto detection = DetectDialectWithFallback(text);
  EXPECT_GE(detection.confidence, 0.0);
  EXPECT_LE(detection.confidence, 1.0);
  // The scoring path stays well-defined too.
  EXPECT_FALSE(ScoreDialects(text).empty());
}

TEST(DialectFallbackTest, OneLineFileDetectsItsDelimiter) {
  auto detection = DetectDialectWithFallback("a;b;c\n");
  EXPECT_EQ(detection.dialect.delimiter, ';');
  EXPECT_GT(detection.confidence, 0.0);
}

TEST(DialectFallbackTest, ConsistentInputUsesConsistencySource) {
  auto detection = DetectDialectWithFallback("a;b;c\n1;2;3\n4;5;6\n");
  EXPECT_EQ(detection.source, DialectSource::kConsistency);
  EXPECT_EQ(detection.dialect.delimiter, ';');
  EXPECT_GT(detection.confidence, 0.0);
  EXPECT_LE(detection.confidence, 1.0);
  EXPECT_GT(detection.best_score.consistency, 0.0);
}

TEST(DialectFallbackTest, SourceNamesAreStable) {
  EXPECT_EQ(DialectSourceName(DialectSource::kConsistency), "consistency");
  EXPECT_EQ(DialectSourceName(DialectSource::kSniff), "sniff");
  EXPECT_EQ(DialectSourceName(DialectSource::kDefault), "default");
}

TEST(DialectDetectorTest, ScoresCoverAllCandidates) {
  DetectorOptions options;
  auto scores = ScoreDialects("a,b\n1,2\n", options);
  EXPECT_EQ(scores.size(),
            options.delimiters.size() * options.quotes.size());
  for (const auto& s : scores) {
    EXPECT_GE(s.consistency, 0.0);
    EXPECT_EQ(s.consistency, s.pattern_score * s.type_score);
  }
}

}  // namespace
}  // namespace strudel::csv
