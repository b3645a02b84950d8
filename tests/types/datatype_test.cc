#include "types/datatype.h"

#include <gtest/gtest.h>

#include <ostream>

namespace strudel {
namespace {

struct TypeCase {
  const char* input;
  DataType expected;
};

// gtest_discover_tests copies the printed parameter into the ctest name,
// so print the input text rather than the struct's raw bytes (a pointer
// and padding, which change on every run).
void PrintTo(const TypeCase& c, std::ostream* os) {
  *os << '"' << c.input << '"';
}

class InferDataTypeTest : public ::testing::TestWithParam<TypeCase> {};

TEST_P(InferDataTypeTest, Infers) {
  EXPECT_EQ(InferDataType(GetParam().input), GetParam().expected)
      << GetParam().input;
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, InferDataTypeTest,
    ::testing::Values(
        TypeCase{"", DataType::kEmpty}, TypeCase{"   ", DataType::kEmpty},
        TypeCase{"42", DataType::kInt}, TypeCase{"-7", DataType::kInt},
        TypeCase{"1,234", DataType::kInt},
        TypeCase{"(250)", DataType::kInt},
        TypeCase{"3.14", DataType::kFloat},
        TypeCase{"12%", DataType::kFloat},
        TypeCase{"$5.00", DataType::kFloat},
        TypeCase{"2019-03-26", DataType::kDate},
        TypeCase{"March 2019", DataType::kDate},
        TypeCase{"Q2 2018", DataType::kDate},
        TypeCase{"hello world", DataType::kString},
        TypeCase{"Total", DataType::kString},
        TypeCase{"12 apples", DataType::kString},
        // Years count as ints, not dates (numeric header trait).
        TypeCase{"2019", DataType::kInt}));

TEST(DataTypeTest, Names) {
  EXPECT_EQ(DataTypeName(DataType::kEmpty), "empty");
  EXPECT_EQ(DataTypeName(DataType::kInt), "int");
  EXPECT_EQ(DataTypeName(DataType::kFloat), "float");
  EXPECT_EQ(DataTypeName(DataType::kDate), "date");
  EXPECT_EQ(DataTypeName(DataType::kString), "string");
}

TEST(DataTypeTest, IsNumericType) {
  EXPECT_TRUE(IsNumericType(DataType::kInt));
  EXPECT_TRUE(IsNumericType(DataType::kFloat));
  EXPECT_FALSE(IsNumericType(DataType::kString));
  EXPECT_FALSE(IsNumericType(DataType::kDate));
  EXPECT_FALSE(IsNumericType(DataType::kEmpty));
}

TEST(DataTypeTest, NumberTakesPrecedenceOverDate) {
  // "2019" could be read as a year but is kept numeric.
  EXPECT_EQ(InferDataType("2019"), DataType::kInt);
  // "2019/20" has no numeric reading, so it is a date.
  EXPECT_EQ(InferDataType("2019/20"), DataType::kDate);
}

}  // namespace
}  // namespace strudel
