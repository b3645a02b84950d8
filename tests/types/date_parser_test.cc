#include "types/date_parser.h"

#include <gtest/gtest.h>

#include <ostream>

namespace strudel {
namespace {

struct DateCase {
  const char* input;
  int year;
  int month;
  int day;
};

// gtest_discover_tests copies the printed parameter into the ctest name,
// so print the input text rather than the struct's raw bytes (a pointer
// and padding, which change on every run).
void PrintTo(const DateCase& c, std::ostream* os) {
  *os << '"' << c.input << '"';
}

class ParseDateValidTest : public ::testing::TestWithParam<DateCase> {};

TEST_P(ParseDateValidTest, ParsesToExpectedFields) {
  const DateCase& param = GetParam();
  auto parsed = ParseDate(param.input);
  ASSERT_TRUE(parsed.has_value()) << param.input;
  EXPECT_EQ(parsed->year, param.year) << param.input;
  EXPECT_EQ(parsed->month, param.month) << param.input;
  EXPECT_EQ(parsed->day, param.day) << param.input;
}

INSTANTIATE_TEST_SUITE_P(
    NumericForms, ParseDateValidTest,
    ::testing::Values(DateCase{"2019-03-26", 2019, 3, 26},
                      DateCase{"26/03/2019", 2019, 3, 26},
                      DateCase{"03/26/2019", 2019, 3, 26},
                      DateCase{"26.03.2019", 2019, 3, 26},
                      DateCase{"2019/03/26", 2019, 3, 26},
                      DateCase{"26/03/19", 2019, 3, 26}));

INSTANTIATE_TEST_SUITE_P(
    MonthNameForms, ParseDateValidTest,
    ::testing::Values(DateCase{"March 2019", 2019, 3, 0},
                      DateCase{"Mar 2019", 2019, 3, 0},
                      DateCase{"26 March 2019", 2019, 3, 26},
                      DateCase{"March 26, 2019", 2019, 3, 26},
                      DateCase{"December", 0, 12, 0},
                      DateCase{"september", 0, 9, 0}));

INSTANTIATE_TEST_SUITE_P(
    PeriodForms, ParseDateValidTest,
    ::testing::Values(DateCase{"2019/20", 2019, 0, 0},
                      DateCase{"Q1 2019", 2019, 1, 0},
                      DateCase{"Q4 2015", 2015, 10, 0},
                      DateCase{"FY2018", 2018, 0, 0}));

class ParseDateInvalidTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParseDateInvalidTest, Rejects) {
  EXPECT_FALSE(ParseDate(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    NotDates, ParseDateInvalidTest,
    ::testing::Values("", "hello", "2019", "123", "13/13/2019",
                      "2019-13-01", "2019-00-10", "32/01/2019", "1.2.3",
                      "Mayor 2019", "Q5 2019", "totally 2019",
                      "1/2/3/4", "March April"));

TEST(ParseDateTest, PlainYearIsNotADate) {
  // Deliberate: year columns behave numerically (see header comment).
  EXPECT_FALSE(IsDate("2019"));
  EXPECT_FALSE(IsDate("1999"));
}

TEST(ParseDateTest, LongStringsRejectedQuickly) {
  std::string long_string(100, 'x');
  EXPECT_FALSE(IsDate(long_string));
}

TEST(ParseDateTest, IsDateAgreesWithParseDate) {
  EXPECT_TRUE(IsDate("2020-01-05"));
  EXPECT_FALSE(IsDate("n/a"));
}

}  // namespace
}  // namespace strudel
