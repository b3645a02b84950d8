#include "types/value_parser.h"

#include <gtest/gtest.h>

#include <ostream>

namespace strudel {
namespace {

struct NumberCase {
  const char* input;
  double expected;
  bool is_integer;
};

// gtest_discover_tests copies the printed parameter into the ctest name,
// so print the input text rather than the struct's raw bytes (a pointer
// and padding, which change on every run).
void PrintTo(const NumberCase& c, std::ostream* os) {
  *os << '"' << c.input << '"';
}

class ParseNumberValidTest : public ::testing::TestWithParam<NumberCase> {};

TEST_P(ParseNumberValidTest, ParsesToExpectedValue) {
  const NumberCase& param = GetParam();
  auto parsed = ParseNumber(param.input);
  ASSERT_TRUE(parsed.has_value()) << param.input;
  EXPECT_NEAR(parsed->value, param.expected, 1e-9) << param.input;
  EXPECT_EQ(parsed->is_integer, param.is_integer) << param.input;
}

INSTANTIATE_TEST_SUITE_P(
    Plain, ParseNumberValidTest,
    ::testing::Values(NumberCase{"0", 0.0, true},
                      NumberCase{"42", 42.0, true},
                      NumberCase{"-17", -17.0, true},
                      NumberCase{"+8", 8.0, true},
                      NumberCase{"3.14", 3.14, false},
                      NumberCase{"-0.5", -0.5, false},
                      NumberCase{".5", 0.5, false},
                      NumberCase{"  12  ", 12.0, true}));

INSTANTIATE_TEST_SUITE_P(
    ThousandsSeparators, ParseNumberValidTest,
    ::testing::Values(NumberCase{"1,234", 1234.0, true},
                      NumberCase{"1,234,567", 1234567.0, true},
                      NumberCase{"12,345.67", 12345.67, false}));

INSTANTIATE_TEST_SUITE_P(
    AccountingAndUnits, ParseNumberValidTest,
    ::testing::Values(NumberCase{"(123)", -123.0, true},
                      NumberCase{"( 45.5 )", -45.5, false},
                      NumberCase{"$99", 99.0, true},
                      NumberCase{"$1,200.50", 1200.50, false},
                      NumberCase{"50%", 0.5, false},
                      NumberCase{"12.5 %", 0.125, false},
                      NumberCase{"($20)", -20.0, true}));

INSTANTIATE_TEST_SUITE_P(
    Exponents, ParseNumberValidTest,
    ::testing::Values(NumberCase{"1e3", 1000.0, false},
                      NumberCase{"2.5E-2", 0.025, false},
                      NumberCase{"1e+2", 100.0, false}));

// Compositions of parentheses, currency and separators; the bugs these
// pin down were surfaced by the observability PR's value audit.
INSTANTIATE_TEST_SUITE_P(
    AffixCompositions, ParseNumberValidTest,
    ::testing::Values(NumberCase{"($1,234.50)", -1234.50, false},
                      NumberCase{"$(1,234.50)", -1234.50, false},
                      NumberCase{"-$1,234.50", -1234.50, false},
                      NumberCase{"$-5", -5.0, true},
                      NumberCase{"(USD 20)", -20.0, true},
                      NumberCase{"USD 1,200", 1200.0, true},
                      NumberCase{"12 USD", 12.0, true},
                      NumberCase{"(-5)", 5.0, true},
                      NumberCase{"(5%)", -0.05, false}));

INSTANTIATE_TEST_SUITE_P(
    EuropeanSeparators, ParseNumberValidTest,
    ::testing::Values(NumberCase{"1.234,50", 1234.50, false},
                      NumberCase{"(1.234,50 \xE2\x82\xAC)", -1234.50, false},
                      NumberCase{"1.234,50 \xE2\x82\xAC", 1234.50, false},
                      NumberCase{"\xE2\x82\xAC"
                                 " 99",
                                 99.0, true},
                      NumberCase{"99 \xC2\xA3", 99.0, true},
                      NumberCase{"1.234.567", 1234567.0, true},
                      NumberCase{"(1.234)", -1.234, false}));

class ParseNumberInvalidTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(ParseNumberInvalidTest, Rejects) {
  EXPECT_FALSE(ParseNumber(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    NotNumbers, ParseNumberInvalidTest,
    ::testing::Values("", "   ", "abc", "12 apples", "1,23", "1,2345",
                      ",123", "12,", "--5", "1.2.3", "()", "%", "$",
                      "one", "12e", "N/A", "-", "1 2"));

INSTANTIATE_TEST_SUITE_P(
    AffixCompositionRejections, ParseNumberInvalidTest,
    ::testing::Values("$$5",        // currency stripped at most once
                      "-(5)",       // negation spellings don't stack
                      "((5))",      // parens stripped at most once
                      "12USD",      // letter codes need a separator space
                      "USD",        // currency with no number
                      "12E",        // uppercase E is not a currency code
                      "1.23,45",    // EU grouping must be 3-digit groups
                      "1.234,",     // EU decimal part needs a digit
                      "127.0.0.1",  // dotted quad is not EU grouping
                      "1.234.56",   // ragged EU groups
                      "5%%"));      // percent stripped at most once

TEST(ParseDoubleTest, MatchesParseNumber) {
  EXPECT_EQ(ParseDouble("1,000").value(), 1000.0);
  EXPECT_FALSE(ParseDouble("x").has_value());
}

TEST(IsNumericTest, Basic) {
  EXPECT_TRUE(IsNumeric("7"));
  EXPECT_TRUE(IsNumeric("(7.5)"));
  EXPECT_FALSE(IsNumeric("seven"));
}

TEST(ParseNumberTest, PercentIsNeverInteger) {
  auto parsed = ParseNumber("100%");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->is_integer);
  EXPECT_NEAR(parsed->value, 1.0, 1e-12);
}

}  // namespace
}  // namespace strudel
