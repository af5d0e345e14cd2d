#include <gtest/gtest.h>

#include <cstdint>

#include "util/options.hpp"
#include "util/table.hpp"

namespace rcc {
namespace {

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"k", "ratio"});
  t.add_row({"2", "1.05"});
  t.add_row({"64", "1.12"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| k "), std::string::npos);
  EXPECT_NE(s.find("ratio"), std::string::npos);
  EXPECT_NE(s.find("1.05"), std::string::npos);
  EXPECT_NE(s.find("64"), std::string::npos);
  // Header separator row present.
  EXPECT_NE(s.find("|--"), std::string::npos);
}

TEST(TablePrinter, RowCount) {
  TablePrinter t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"x"});
  t.add_row({"y"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TablePrinter, FormatHelpers) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(std::uint64_t{12345}), "12345");
  EXPECT_EQ(TablePrinter::fmt(std::int64_t{-7}), "-7");
  EXPECT_EQ(TablePrinter::fmt_ratio(1.5), "1.500");
}

TEST(TablePrinter, WideCellsExpandColumn) {
  TablePrinter t({"x"});
  t.add_row({"a-very-long-cell"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a-very-long-cell"), std::string::npos);
}

TEST(Options, DefaultsAreReturned) {
  Options opts("test");
  opts.flag("n", "100", "size").flag("p", "0.5", "prob").flag("v", "false", "verbose");
  char prog[] = "prog";
  char* argv[] = {prog};
  opts.parse(1, argv);
  EXPECT_EQ(opts.get_int("n"), 100);
  EXPECT_DOUBLE_EQ(opts.get_double("p"), 0.5);
  EXPECT_FALSE(opts.get_bool("v"));
}

TEST(Options, ParsesEqualsAndSpaceSyntax) {
  Options opts("test");
  opts.flag("n", "1", "").flag("name", "x", "");
  char prog[] = "prog";
  char a1[] = "--n=42";
  char a2[] = "--name";
  char a3[] = "hello";
  char* argv[] = {prog, a1, a2, a3};
  opts.parse(4, argv);
  EXPECT_EQ(opts.get_int("n"), 42);
  EXPECT_EQ(opts.get_string("name"), "hello");
}

TEST(Options, BoolParsing) {
  Options opts("test");
  opts.flag("a", "true", "").flag("b", "1", "").flag("c", "on", "").flag("d", "no", "");
  char prog[] = "prog";
  char* argv[] = {prog};
  opts.parse(1, argv);
  EXPECT_TRUE(opts.get_bool("a"));
  EXPECT_TRUE(opts.get_bool("b"));
  EXPECT_TRUE(opts.get_bool("c"));
  EXPECT_FALSE(opts.get_bool("d"));
}

Options parsed_single_flag(const std::string& value) {
  Options opts("test");
  opts.flag("x", value, "probe");
  char prog[] = "prog";
  char* argv[] = {prog};
  opts.parse(1, argv);
  return opts;
}

TEST(Options, BoundaryNumericValuesParse) {
  // The extremes of the representable ranges are values, not errors.
  EXPECT_EQ(parsed_single_flag("9223372036854775807").get_int("x"),
            INT64_MAX);
  EXPECT_EQ(parsed_single_flag("-9223372036854775808").get_int("x"),
            INT64_MIN);
  EXPECT_DOUBLE_EQ(parsed_single_flag("1e308").get_double("x"), 1e308);
  EXPECT_DOUBLE_EQ(parsed_single_flag("-1e308").get_double("x"), -1e308);
  // Gradual underflow to a subnormal is a faithful value (glibc flags it
  // with ERANGE anyway); only total underflow to zero is an error.
  EXPECT_DOUBLE_EQ(parsed_single_flag("1e-310").get_double("x"), 1e-310);
}

TEST(OptionsDeath, IntegerOverflowIsRejectedNotClamped) {
  // Regression: strtoll clamps out-of-range input to LLONG_MAX/LLONG_MIN and
  // only reports it via errno == ERANGE; strict parsing must exit(2) instead
  // of silently running with the saturated value.
  EXPECT_EXIT(parsed_single_flag("9223372036854775808").get_int("x"),
              ::testing::ExitedWithCode(2), "overflows the 64-bit integer");
  EXPECT_EXIT(parsed_single_flag("-99999999999999999999").get_int("x"),
              ::testing::ExitedWithCode(2), "overflows the 64-bit integer");
}

TEST(OptionsDeath, DoubleOverflowAndUnderflowAreRejected) {
  // strtod saturates overflow to +-HUGE_VAL and squashes underflow toward
  // zero, both with errno == ERANGE; either way the program would not run
  // with the value the user wrote.
  EXPECT_EXIT(parsed_single_flag("1e999").get_double("x"),
              ::testing::ExitedWithCode(2), "outside the representable");
  EXPECT_EXIT(parsed_single_flag("-1e999").get_double("x"),
              ::testing::ExitedWithCode(2), "outside the representable");
  EXPECT_EXIT(parsed_single_flag("1e-999").get_double("x"),
              ::testing::ExitedWithCode(2), "outside the representable");
}

TEST(OptionsDeath, RangedIntegerKeepsItsInclusiveBounds) {
  EXPECT_EQ(parsed_single_flag("1").get_int_in("x", 1, 1024), 1);
  EXPECT_EQ(parsed_single_flag("1024").get_int_in("x", 1, 1024), 1024);
  EXPECT_EXIT(parsed_single_flag("0").get_int_in("x", 1, 1024),
              ::testing::ExitedWithCode(2),
              "flag --x: 0 must be in \\[1, 1024\\]");
  EXPECT_EXIT(parsed_single_flag("1025").get_int_in("x", 1, 1024),
              ::testing::ExitedWithCode(2),
              "flag --x: 1025 must be in \\[1, 1024\\]");
  // A value that does not parse dies as before, not as out of range.
  EXPECT_EXIT(parsed_single_flag("-1x").get_int_in("x", 0, 10),
              ::testing::ExitedWithCode(2), "not a representable integer");
}

TEST(OptionsDeath, MalformedNumbersAreRejected) {
  EXPECT_EXIT(parsed_single_flag("12abc").get_int("x"),
              ::testing::ExitedWithCode(2), "not a representable integer");
  EXPECT_EXIT(parsed_single_flag("").get_int("x"),
              ::testing::ExitedWithCode(2), "not a representable integer");
  EXPECT_EXIT(parsed_single_flag("0.5.1").get_double("x"),
              ::testing::ExitedWithCode(2), "not a representable number");
}


TEST(TablePrinter, CsvRendering) {
  TablePrinter t({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "quote\"inside"});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,1\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

}  // namespace
}  // namespace rcc
