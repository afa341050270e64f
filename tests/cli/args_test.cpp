#include "cli/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace deepcat::cli {
namespace {

TEST(ArgsTest, EmptyArgvIsEmptyCommand) {
  const ParsedArgs args = parse_args({});
  EXPECT_TRUE(args.command.empty());
  EXPECT_TRUE(args.flags.empty());
}

TEST(ArgsTest, CommandOnly) {
  const ParsedArgs args = parse_args({"knobs"});
  EXPECT_EQ(args.command, "knobs");
}

TEST(ArgsTest, FlagsAndValues) {
  const ParsedArgs args =
      parse_args({"simulate", "--workload", "TS", "--size", "3.2"});
  EXPECT_EQ(args.command, "simulate");
  EXPECT_EQ(args.flag_or("workload", "?"), "TS");
  EXPECT_DOUBLE_EQ(args.number_or("size", 0.0), 3.2);
  EXPECT_EQ(args.flag("missing"), std::nullopt);
  EXPECT_EQ(args.flag_or("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.number_or("missing", 7.0), 7.0);
}

TEST(ArgsTest, SetAssignmentsAccumulate) {
  const ParsedArgs args = parse_args(
      {"simulate", "--set", "spark.executor.memory=6144", "--set",
       "dfs.replication=1"});
  ASSERT_EQ(args.assignments.size(), 2u);
  EXPECT_EQ(args.assignments[0].first, "spark.executor.memory");
  EXPECT_EQ(args.assignments[0].second, "6144");
  EXPECT_EQ(args.assignments[1].first, "dfs.replication");
  EXPECT_EQ(args.assignments[1].second, "1");
}

TEST(ArgsTest, SubcommandIsTheOptionalSecondPositional) {
  const ParsedArgs args =
      parse_args({"index", "build", "--out", "index.bin"});
  EXPECT_EQ(args.command, "index");
  EXPECT_EQ(args.subcommand, "build");
  EXPECT_EQ(args.flag_or("out", "?"), "index.bin");
  // No subcommand leaves the field empty; run_cli decides which commands
  // accept one.
  EXPECT_TRUE(parse_args({"simulate", "--size", "3.2"}).subcommand.empty());
}

TEST(ArgsTest, MalformedInputsThrow) {
  EXPECT_THROW((void)parse_args({"simulate", "--size"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"simulate", "--set", "novalue"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"simulate", "--set", "=5"}),
               std::invalid_argument);
  // Two positionals parse (command + subcommand); a third never does.
  EXPECT_THROW((void)parse_args({"index", "build", "stray"}),
               std::invalid_argument);
}

TEST(ArgsTest, NumberOrRejectsGarbage) {
  // Not a number, a number with trailing characters, and non-finite
  // values all fail instead of reading as a prefix or a NaN.
  for (const char* bad : {"abc", "3abc", "nan", "inf", "-inf", ""}) {
    const ParsedArgs args = parse_args({"x", "--size", bad});
    EXPECT_THROW((void)args.number_or("size", 0.0), std::invalid_argument)
        << "'" << bad << "'";
  }
  EXPECT_DOUBLE_EQ(parse_args({"x", "--size", "1e3"}).number_or("size", 0.0),
                   1000.0);
  EXPECT_DOUBLE_EQ(parse_args({"x", "--t", "-2.5"}).number_or("t", 0.0),
                   -2.5);
}

TEST(ArgsTest, IntegerOrAcceptsOnlyWholeNumbersTheTypeHolds) {
  for (const char* bad : {"-1", "2.5", "1e30", "nan", "3abc"}) {
    const ParsedArgs args = parse_args({"x", "--threads", bad});
    EXPECT_THROW((void)args.integer_or<std::size_t>("threads", 0),
                 std::invalid_argument)
        << "'" << bad << "'";
  }
  // The range is the target type's: 2^31 fits a uint64 but not an int.
  const ParsedArgs big = parse_args({"x", "--n", "2147483648"});
  EXPECT_EQ(big.integer_or<std::uint64_t>("n", 0), 2147483648ull);
  EXPECT_THROW((void)big.integer_or<int>("n", 0), std::invalid_argument);

  const ParsedArgs ok = parse_args({"x", "--threads", "4", "--zero", "0"});
  EXPECT_EQ(ok.integer_or<std::size_t>("threads", 0), 4u);
  EXPECT_EQ(ok.integer_or<int>("zero", 7), 0);
  EXPECT_EQ(ok.integer_or<int>("missing", 7), 7);
}

}  // namespace
}  // namespace deepcat::cli
